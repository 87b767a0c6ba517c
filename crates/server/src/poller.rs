//! Readiness polling over Linux `epoll`, hand-rolled against the libc
//! symbols the standard library already links (the build environment is
//! offline — no `libc`/`mio` crates, no async runtime).
//!
//! Three small types:
//!
//! * [`Poller`] — an `epoll` instance. Register file descriptors with a
//!   `u64` token and an [`Interest`]; [`Poller::wait`] blocks until
//!   readiness (or a timeout) and reports [`Event`]s carrying the token
//!   back.
//! * [`Interest`] — which readiness directions to watch. Registration is
//!   level-triggered: as long as a socket stays readable/writable the
//!   event re-fires, so nothing is lost if a handler leaves bytes
//!   unconsumed. A *one-shot* registration ([`Poller::register_oneshot`])
//!   reports one event and then stays silent until [`Poller::rearm`]: with
//!   several threads waiting on one poller, that makes the thread that
//!   received the event the descriptor's only owner until it re-arms.
//! * `Waker` — an `eventfd` another thread (a shutdown call) writes to
//!   interrupt every blocked [`Poller::wait`] from outside.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// The raw FFI surface: the handful of glibc calls `epoll` needs. Kept in
/// one scoped module so the rest of the crate stays `deny(unsafe_code)`.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;

    pub(crate) const EPOLL_CTL_ADD: i32 = 1;
    pub(crate) const EPOLL_CTL_DEL: i32 = 2;
    pub(crate) const EPOLL_CTL_MOD: i32 = 3;
    pub(crate) const EPOLLIN: u32 = 0x1;
    pub(crate) const EPOLLOUT: u32 = 0x4;
    pub(crate) const EPOLLERR: u32 = 0x8;
    pub(crate) const EPOLLHUP: u32 = 0x10;
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;
    pub(crate) const EPOLLONESHOT: u32 = 1 << 30;
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EFD_CLOEXEC: i32 = 0x80000;
    const EFD_NONBLOCK: i32 = 0x800;

    /// `struct epoll_event`. On x86-64 the kernel ABI packs it to 12
    /// bytes (4-byte `events` immediately followed by the 8-byte payload)
    /// — hence the conditional `repr(packed)`.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(crate) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    pub(crate) fn epoll_create() -> io::Result<RawFd> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(fd)
        }
    }

    pub(crate) fn epoll_control(
        epfd: RawFd,
        op: i32,
        fd: RawFd,
        events: u32,
        data: u64,
    ) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub(crate) fn epoll_wait_events(
        epfd: RawFd,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }

    pub(crate) fn eventfd_create() -> io::Result<RawFd> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(fd)
        }
    }

    pub(crate) fn close_fd(fd: RawFd) {
        unsafe {
            close(fd);
        }
    }

    pub(crate) fn write_u64(fd: RawFd, value: u64) -> io::Result<()> {
        let buf = value.to_ne_bytes();
        let rc = unsafe { write(fd, buf.as_ptr(), buf.len()) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }
}

/// Which readiness directions to watch for a registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable (or hangs up).
    pub readable: bool,
    /// Wake when the descriptor becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest (a connection with buffered output).
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn bits(self) -> u32 {
        let mut bits = sys::EPOLLRDHUP;
        if self.readable {
            bits |= sys::EPOLLIN;
        }
        if self.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Readable (includes hangup/error, so a `read` observes the EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Peer hangup or descriptor error.
    pub hangup: bool,
}

/// An `epoll` instance. See the module docs for the intended topology.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a new poller.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::epoll_create()?,
        })
    }

    /// Starts watching `fd` with level-triggered `interest`; `token` comes
    /// back in every [`Event`] for this descriptor.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_ADD, fd, interest.bits(), token)
    }

    /// Starts watching `fd` for a single event: once it is reported the
    /// descriptor is disarmed until [`Poller::rearm`].
    pub fn register_oneshot(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let bits = interest.bits() | sys::EPOLLONESHOT;
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_ADD, fd, bits, token)
    }

    /// Re-enables a one-shot registration, with a possibly new interest;
    /// readiness that is already there is reported at once.
    pub fn rearm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let bits = interest.bits() | sys::EPOLLONESHOT;
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_MOD, fd, bits, token)
    }

    /// Changes the interest set of an already-registered descriptor.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_MOD, fd, interest.bits(), token)
    }

    /// Stops watching `fd` (dropping the descriptor also deregisters it,
    /// but an explicit call keeps tombstoned connections out of the set).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness, a wake, or the timeout (`None` = forever),
    /// replacing the contents of `events`. A signal interruption returns
    /// an empty set rather than an error.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.wait_up_to(events, 256, timeout)
    }

    /// [`Poller::wait`] reporting at most `max` events (1 to 256): a
    /// thread that serves what it takes before waiting again takes one,
    /// leaving the rest to other threads.
    pub fn wait_up_to(
        &self,
        events: &mut Vec<Event>,
        max: usize,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => {
                // Round up so sub-millisecond timeouts still sleep.
                let ms = t.as_millis();
                let ms = if ms == 0 && !t.is_zero() { 1 } else { ms };
                ms.min(i32::MAX as u128) as i32
            }
        };
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let raw = &mut raw[..max.clamp(1, 256)];
        let n = match sys::epoll_wait_events(self.epfd, raw, timeout_ms) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in raw.iter().take(n) {
            // Copy the (possibly unaligned) packed fields out by value.
            let bits = ev.events;
            let token = ev.data;
            let hangup = bits & (sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) != 0;
            events.push(Event {
                token,
                readable: bits & sys::EPOLLIN != 0 || hangup,
                writable: bits & sys::EPOLLOUT != 0,
                hangup,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// An `eventfd`-backed wake handle, safe to use from any thread. It is
/// never drained: registered level-triggered, one wake keeps it readable,
/// so every thread waiting on the poller returns.
#[derive(Debug)]
pub(crate) struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates the eventfd (nonblocking, close-on-exec).
    pub(crate) fn new() -> io::Result<Waker> {
        Ok(Waker {
            fd: sys::eventfd_create()?,
        })
    }

    /// The descriptor to register (read interest) with the poller.
    pub(crate) fn as_raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Wakes the poller. Saturation (`EAGAIN` on a full counter) is fine —
    /// the descriptor is readable either way.
    pub(crate) fn wake(&self) {
        let _ = sys::write_u64(self.fd, 1);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn listener_readiness_fires_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "no connection yet: {events:?}");
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
    }

    #[test]
    fn stream_readiness_and_write_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(server_side.as_raw_fd(), 42, Interest::READ_WRITE)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        // Fresh socket: writable immediately, not yet readable.
        let ev = events.iter().find(|e| e.token == 42).unwrap();
        assert!(ev.writable && !ev.readable, "{ev:?}");
        client.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 42).unwrap();
        assert!(ev.readable, "{ev:?}");
        // Downgrading to read interest stops writable wakeups.
        poller
            .modify(server_side.as_raw_fd(), 42, Interest::READ)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.iter().all(|e| !e.writable), "{events:?}");
    }

    #[test]
    fn one_wake_interrupts_every_blocked_wait() {
        let poller = Arc::new(Poller::new().unwrap());
        let waker = Waker::new().unwrap();
        poller
            .register(waker.as_raw_fd(), 1, Interest::READ)
            .unwrap();
        let start = Instant::now();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let poller = Arc::clone(&poller);
                std::thread::spawn(move || {
                    let mut events = Vec::new();
                    poller
                        .wait_up_to(&mut events, 1, Some(Duration::from_secs(10)))
                        .unwrap();
                    events
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        waker.wake();
        for waiter in waiters {
            let events = waiter.join().unwrap();
            assert!(
                events.iter().any(|e| e.token == 1 && e.readable),
                "{events:?}"
            );
        }
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn a_oneshot_registration_reports_once_until_rearmed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register_oneshot(server_side.as_raw_fd(), 5, Interest::READ)
            .unwrap();
        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 5 && e.readable));
        // Still readable, but disarmed: silent until re-armed.
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
        poller
            .rearm(server_side.as_raw_fd(), 5, Interest::READ_WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 5).unwrap();
        assert!(ev.readable && ev.writable, "{ev:?}");
    }

    #[test]
    fn hangup_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(server_side.as_raw_fd(), 9, Interest::READ)
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 9).unwrap();
        assert!(ev.hangup && ev.readable, "{ev:?}");
    }
}
