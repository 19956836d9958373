//! MPMC FIFO queue: an unbounded [`SegQueue`] mirroring
//! `crossbeam::queue::SegQueue`.
//!
//! The workspace pushes and pops in bursts of at most a few dozen items, so
//! a mutex-guarded ring buffer is competitive with a lock-free segment
//! queue while staying dependency-free and trivially correct.

use crate::sync::Mutex;
use std::collections::VecDeque;

/// Unbounded FIFO queue usable from many threads.
#[derive(Debug, Default)]
pub struct SegQueue<T> {
    inner: Mutex<VecDeque<T>>,
}

impl<T> SegQueue<T> {
    /// New empty queue.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Append an element at the tail.
    pub fn push(&self, value: T) {
        self.inner.lock().push_back(value);
    }

    /// Remove the head element, if any.
    pub fn pop(&self) -> Option<T> {
        self.inner.lock().pop_front()
    }

    /// Number of queued elements at the time of the call.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue was empty at the time of the call.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let q = SegQueue::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }
}
