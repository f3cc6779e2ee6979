//! Busy/self time accounting for the traced runs: spans recorded from the
//! benchmark's own code around each layer call, kept in memory and printed
//! as one table when the run ends.

use std::time::Instant;

#[derive(Debug, Clone)]
struct Layer {
    name: &'static str,
    parent: Option<&'static str>,
    busy_ms: f64,
}

/// Named layers under one root span (the traced operation's wall time).
#[derive(Debug, Default)]
pub struct Layers {
    layers: Vec<Layer>,
}

impl Layers {
    /// Adds `ms` of busy time to `name`, a child of `parent` (`None` = a
    /// direct child of the root).
    pub fn add(&mut self, name: &'static str, parent: Option<&'static str>, ms: f64) {
        match self.layers.iter_mut().find(|l| l.name == name) {
            Some(l) => l.busy_ms += ms,
            None => self.layers.push(Layer { name, parent, busy_ms: ms }),
        }
    }

    /// Runs `f` as a direct child of the root, charging its wall time to
    /// `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, None, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Total busy milliseconds of `name` (0 when never recorded).
    pub fn busy(&self, name: &str) -> f64 {
        self.layers.iter().find(|l| l.name == name).map_or(0.0, |l| l.busy_ms)
    }

    /// Busy time of `name` not covered by its child spans.
    pub fn self_ms(&self, name: &str) -> f64 {
        let children: f64 =
            self.layers.iter().filter(|l| l.parent == Some(name)).map(|l| l.busy_ms).sum();
        self.busy(name) - children
    }

    /// Busy time of the root's direct children: the attributed part of the
    /// root's wall time.
    pub fn attributed_ms(&self) -> f64 {
        self.layers.iter().filter(|l| l.parent.is_none()).map(|l| l.busy_ms).sum()
    }

    fn depth(&self, layer: &Layer) -> usize {
        let mut depth = 0;
        let mut parent = layer.parent;
        while let Some(p) = parent {
            depth += 1;
            parent = self.layers.iter().find(|l| l.name == p).and_then(|l| l.parent);
        }
        depth
    }

    /// Prints the layer table: busy and self time per operation (`ops`
    /// operations, root wall `wall_ms`), each with its share of the wall.
    pub fn print(&self, title: &str, op: &str, ops: usize, wall_ms: f64) {
        let per = |ms: f64| ms / ops.max(1) as f64;
        let pct = |ms: f64| 100.0 * ms / wall_ms.max(1e-12);
        println!("layer table: {title} ({ops} {op}s, traced wall {:.1} ms)", wall_ms);
        println!(
            "  {:<34} {:>12} {:>7} {:>12} {:>7}",
            format!("layer (ms per {op})"),
            "busy",
            "%wall",
            "self",
            "%wall"
        );
        for layer in &self.layers {
            let name = format!("{}{}", "  ".repeat(self.depth(layer)), layer.name);
            let self_ms = self.self_ms(layer.name);
            println!(
                "  {name:<34} {:>12.3} {:>6.1}% {:>12.3} {:>6.1}%",
                per(layer.busy_ms),
                pct(layer.busy_ms),
                per(self_ms),
                pct(self_ms)
            );
        }
        let unattributed = wall_ms - self.attributed_ms();
        println!(
            "  {:<34} {:>12.3} {:>6.1}%",
            "unattributed",
            per(unattributed),
            pct(unattributed)
        );
    }
}
