//! gwbench stand-in for `crossbeam`: the channel types the paced thread
//! executor names, with no way to construct one.  The benchmark runs
//! virtual-time grids only; building a paced executor panics here.

pub mod channel {
    use std::marker::PhantomData;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    pub struct Sender<T>(PhantomData<fn(T)>);
    pub struct Receiver<T>(PhantomData<fn() -> T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(PhantomData)
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, _value: T) -> Result<(), SendError<T>> {
            unimplemented!("gwbench stand-in: crossbeam channel reached on a measured path")
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            unimplemented!("gwbench stand-in: crossbeam channel reached on a measured path")
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            unimplemented!("gwbench stand-in: crossbeam channel reached on a measured path")
        }

        pub fn recv_timeout(&self, _timeout: Duration) -> Result<T, RecvTimeoutError> {
            unimplemented!("gwbench stand-in: crossbeam channel reached on a measured path")
        }

        pub fn is_empty(&self) -> bool {
            unimplemented!("gwbench stand-in: crossbeam channel reached on a measured path")
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        unimplemented!("gwbench stand-in: crossbeam::channel::unbounded reached on a measured path")
    }
}
