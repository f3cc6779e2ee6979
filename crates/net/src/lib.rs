//! The sweep farm's wire: framing, the typed message codec and a threaded
//! TCP service loop (blocking `std::net`, one thread per connection).
//!
//! * [`Message`] / [`FramedStream`] — a compact, **versioned**
//!   length-prefixed binary wire format ([`frame`]) carrying the sweep
//!   farm's coordinator/worker/client request–response vocabulary. Peers
//!   agree on a revision with [`FramedStream::handshake`]
//!   ([`PROTOCOL_VERSION`]), and frames of unknown kind are skipped with a
//!   warning instead of erroring, so adjacent builds interoperate.
//! * [`serve`] / [`ServerHandle`] — a threaded accept loop handing each
//!   connection to a session handler, with a shared stop flag for polite
//!   drains (the farm coordinator's substrate).
//!
//! The farm itself (coordinator, worker, client) lives in `comdml-exp`.
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod codec;
pub mod frame;
mod server;

pub use codec::{FramedStream, Message, WorkerRow};
pub use frame::{NetError, PROTOCOL_VERSION};
pub use server::{serve, ServerHandle};
