//! Readiness polling for the `ustr-net` event loop.
//!
//! The server's event loop needs exactly three things from the OS: "tell me
//! when any of these sockets can make progress", "let me change what I care
//! about per socket", and "let another thread kick me awake". This crate
//! provides them std-only:
//!
//! - [`Poller`] — a level-triggered readiness queue backed by `epoll`
//!   (O(ready) wakeups, no per-wait re-registration). Linux and Android
//!   are the supported platforms; anything else fails to compile.
//! - [`Waker`] — a cross-thread wakeup built from a connected pair of
//!   loopback UDP sockets. The receive half registers in the poller like
//!   any other fd; `wake()` is one datagram from any thread. No pipes, no
//!   eventfd, no extra FFI: the waker is 100% safe std networking.
//!
//! # Why this crate may contain `unsafe`
//!
//! This is the **only** crate root in the workspace without
//! `#![forbid(unsafe_code)]` (see `INVARIANTS.md` §6; CI names it as the
//! one exception):
//! readiness syscalls are not exposed by `std`, so `epoll_create1` /
//! `epoll_ctl` / `epoll_wait` / `close` are declared as
//! `extern "C"` bindings against libc and invoked in four small, audited
//! `unsafe` blocks. Every pointer passed crosses into the kernel for the
//! duration of one call only, every buffer is stack- or caller-owned, and
//! no `unsafe` leaks into the API: consumers (the `ustr-net` event loop)
//! keep `#![forbid(unsafe_code)]`.
//!
//! # Level-triggered contract
//!
//! Readiness is a *condition*, not an event: as long as a registered fd can
//! read or write, every [`Poller::wait`] reports it again. Callers must
//! therefore drop interest in what they cannot act on (e.g. deregister
//! write interest once the output queue is empty) or they will busy-loop.
//! The flip side is robustness: a caller that processes only part of the
//! readable data is re-notified, so short reads never lose wakeups.

use std::io;
use std::net::UdpSocket;
#[cfg(unix)]
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

#[cfg(not(any(target_os = "linux", target_os = "android")))]
compile_error!("ustr-poll requires Linux or Android (epoll)");

/// What a registration wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Report when a read can make progress (data buffered, or EOF).
    pub readable: bool,
    /// Report when a write can make progress (socket buffer has room).
    pub writable: bool,
}

impl Interest {
    /// Read interest only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// No interest: only hangup/error conditions are reported (epoll
    /// delivers those unconditionally). Used by connections that
    /// are draining in-flight work and have nothing to read or write yet.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// A read can make progress.
    pub readable: bool,
    /// A write can make progress.
    pub writable: bool,
    /// The peer hung up or the socket errored; delivered even under
    /// [`Interest::NONE`]. The fd still accepts reads of any buffered
    /// data, but writes will fail.
    pub hangup: bool,
}

/// Upper bound on events decoded per [`Poller::wait`] call. A level-triggered
/// poller re-reports anything still ready, so a small bound costs nothing
/// but an extra syscall under extreme fan-in.
const MAX_EVENTS: usize = 256;

/// Converts an optional timeout to the millisecond convention of
/// `epoll_wait`: `-1` blocks, `0` polls, sub-millisecond
/// non-zero timeouts round **up** so a 100µs deadline cannot spin.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        Some(d) => {
            let ms = d.as_millis();
            if ms == 0 {
                1
            } else {
                ms.min(i32::MAX as u128) as i32
            }
        }
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
mod sys {
    //! The epoll backend. The kernel owns the interest set, so register /
    //! reregister / deregister are one `epoll_ctl` each and `wait` is one
    //! `epoll_wait` — no userspace bookkeeping at all.

    use super::{timeout_ms, Event, Interest, MAX_EVENTS};
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    // The kernel ABI packs epoll_event on x86-64 only (a 12-byte struct);
    // everywhere else it has natural C layout (16 bytes).
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// Level-triggered readiness queue over `epoll`.
    pub struct Poller {
        epfd: RawFd,
    }

    fn mask_of(interest: Interest) -> u32 {
        let mut events = 0;
        if interest.readable {
            events |= EPOLLIN;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        events
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: no pointers; returns a fresh fd or -1.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, event: Option<&mut EpollEvent>) -> io::Result<()> {
            let ptr = match event {
                Some(e) => e as *mut EpollEvent,
                // DEL ignores the event argument on any kernel this code
                // can run on (the requirement to pass one died in 2.6.9).
                None => std::ptr::null_mut(),
            };
            // SAFETY: `ptr` is null (DEL) or points at a live stack value
            // owned by our caller for the duration of the call; the kernel
            // copies it and keeps no reference.
            if unsafe { epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: mask_of(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_ADD, fd, Some(&mut event))
        }

        pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: mask_of(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_MOD, fd, Some(&mut event))
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        pub fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            // SAFETY: `buf` is a live stack array of MAX_EVENTS entries and
            // the length passed matches; the kernel writes at most that many.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    buf.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                // A signal is not an error: report zero events and let the
                // caller's loop come back around.
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for slot in buf.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct before use.
                let mask = slot.events;
                let token = slot.data;
                events.push(Event {
                    token,
                    readable: mask & EPOLLIN != 0,
                    writable: mask & EPOLLOUT != 0,
                    hangup: mask & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(events.len())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` is a valid fd this struct exclusively owns.
            unsafe { close(self.epfd) };
        }
    }
}

/// A level-triggered readiness queue over `epoll`. Registration is by raw
/// fd plus a caller-chosen `u64` token; [`Poller::wait`] reports tokens,
/// never fds, so callers are immune to fd reuse races. See the
/// [crate docs](self) for the level-triggered contract.
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Creates an empty poller.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            inner: sys::Poller::new()?,
        })
    }

    /// Adds `fd` with `token` and `interest`. The fd must outlive the
    /// registration (deregister before closing it).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Replaces the token and interest of an already-registered `fd`.
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.reregister(fd, token, interest)
    }

    /// Removes `fd` from the interest set.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// elapses (`Some`), or forever (`None`). Clears and fills `events`;
    /// returns how many were delivered (0 on timeout or signal).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        self.inner.wait(events, timeout)
    }
}

/// A cross-thread wakeup for a [`Poller`], built from a connected pair of
/// loopback UDP sockets — safe std networking, no extra syscall bindings.
///
/// Register [`Waker::as_raw_fd`] (the receive half) with read interest;
/// [`Waker::wake`] from any thread makes the next (or current) `wait`
/// return. The event loop calls [`Waker::drain`] on readiness so coalesced
/// wakes do not pile up. Each half is `connect`ed to the other, so
/// datagrams from any other source are refused by the kernel — a stray
/// local process cannot forge wakeups.
pub struct Waker {
    /// The half the poller watches.
    rx: UdpSocket,
    /// The half other threads send the wake byte through.
    tx: UdpSocket,
}

impl Waker {
    /// Binds the loopback pair. The receive half is non-blocking (drain
    /// must never stall the event loop).
    pub fn new() -> io::Result<Self> {
        let rx = UdpSocket::bind("127.0.0.1:0")?;
        let tx = UdpSocket::bind("127.0.0.1:0")?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        tx.connect(rx.local_addr()?)?;
        rx.connect(tx.local_addr()?)?;
        Ok(Self { rx, tx })
    }

    /// Makes the poller's current or next `wait` return. Callable from any
    /// thread; failures are ignored (the only consequence of a lost wake on
    /// a dead loop is nothing).
    pub fn wake(&self) {
        let _ = self.tx.send(&[1]);
    }

    /// Discards every pending wake datagram. Called by the event loop when
    /// the waker fd reports readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 16];
        while self.rx.recv(&mut buf).is_ok() {}
    }
}

impl AsRawFd for Waker {
    /// The fd to register with the poller (read interest).
    fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn events_of(poller: &Poller, timeout: Duration) -> Vec<Event> {
        let mut events = Vec::new();
        poller.wait(&mut events, Some(timeout)).expect("wait");
        events
    }

    #[test]
    fn a_listener_becomes_readable_when_a_client_connects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
            .unwrap();

        assert!(
            events_of(&poller, Duration::from_millis(10)).is_empty(),
            "nothing is ready before a client arrives"
        );
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let events = events_of(&poller, Duration::from_secs(5));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn level_triggering_rereports_until_the_condition_clears() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client.write_all(b"ping").unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 1, Interest::READ)
            .unwrap();
        // Unconsumed data: reported on every wait.
        for _ in 0..3 {
            let events = events_of(&poller, Duration::from_secs(5));
            assert!(events.iter().any(|e| e.token == 1 && e.readable));
        }
        // Consume it: readiness clears.
        let mut sink = [0u8; 16];
        let mut server_reader = &server;
        let n = server_reader.read(&mut sink).unwrap();
        assert_eq!(n, 4);
        assert!(events_of(&poller, Duration::from_millis(10)).is_empty());
    }

    #[test]
    fn interest_changes_take_effect_and_deregister_silences() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client.write_all(b"x").unwrap();

        let poller = Poller::new().unwrap();
        // Interest::NONE: buffered data is not reported.
        poller
            .register(server.as_raw_fd(), 9, Interest::NONE)
            .unwrap();
        assert!(events_of(&poller, Duration::from_millis(10)).is_empty());
        // Flip to read interest: the same buffered byte now reports.
        poller
            .reregister(server.as_raw_fd(), 9, Interest::READ)
            .unwrap();
        let events = events_of(&poller, Duration::from_secs(5));
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
        // An idle socket's buffer has room: write interest reports too.
        poller
            .reregister(
                server.as_raw_fd(),
                9,
                Interest {
                    readable: false,
                    writable: true,
                },
            )
            .unwrap();
        let events = events_of(&poller, Duration::from_secs(5));
        assert!(events.iter().any(|e| e.token == 9 && e.writable));
        poller.deregister(server.as_raw_fd()).unwrap();
        assert!(events_of(&poller, Duration::from_millis(10)).is_empty());
    }

    #[test]
    fn waker_wakes_a_blocked_wait_from_another_thread() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller
            .register(waker.as_raw_fd(), u64::MAX, Interest::READ)
            .unwrap();

        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.wake();
        });
        let t0 = Instant::now();
        let events = events_of(&poller, Duration::from_secs(10));
        handle.join().unwrap();
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the wake interrupted the wait rather than the timeout elapsing"
        );
        // Drained, the condition clears (coalesced wakes collapse too).
        waker.wake();
        waker.wake();
        waker.drain();
        assert!(events_of(&poller, Duration::from_millis(10)).is_empty());
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_not_to_zero() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(250))), 250);
    }
}
