package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Limiter is a weighted semaphore with a bounded FIFO wait queue — the
// admission controller in front of every simulation endpoint. Each request
// is weighed by its estimated trace footprint (synth.RunBytes); requests
// that fit run immediately, requests that don't wait in arrival order up to
// the queue bound, and everything beyond that is rejected outright so the
// daemon sheds load instead of accumulating it.
type Limiter struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	queue    []*waiter
	maxQueue int
}

// waiter is one queued acquisition.
type waiter struct {
	weight  int64
	ready   chan struct{}
	granted bool
}

// ErrQueueFull reports an acquisition rejected because the wait queue is at
// its bound; the caller should surface 429 with a Retry-After hint.
var ErrQueueFull = errors.New("server: admission queue full")

// ErrTooHeavy reports a weight exceeding the limiter's total capacity: the
// request can never be admitted at that weight and must be shrunk first.
var ErrTooHeavy = errors.New("server: request exceeds admission capacity")

// NewLimiter returns a limiter admitting up to capacity weight concurrently
// and queueing at most maxQueue waiters beyond that.
func NewLimiter(capacity int64, maxQueue int) *Limiter {
	if capacity < 1 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Limiter{capacity: capacity, maxQueue: maxQueue}
}

// Acquire admits weight, waiting in FIFO order when the semaphore is full.
// It returns a release function that must be called exactly once, or an
// error: ErrTooHeavy (never admittable), ErrQueueFull (bounded queue
// overflow), or ctx.Err() (the caller's deadline expired while queued).
func (l *Limiter) Acquire(ctx context.Context, weight int64) (func(), error) {
	if weight < 0 {
		weight = 0
	}
	l.mu.Lock()
	if weight > l.capacity {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: weight %d, capacity %d", ErrTooHeavy, weight, l.capacity)
	}
	if len(l.queue) == 0 && l.used+weight <= l.capacity {
		l.used += weight
		l.mu.Unlock()
		return l.releaseFunc(weight), nil
	}
	if len(l.queue) >= l.maxQueue {
		l.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.mu.Unlock()

	select {
	case <-w.ready:
		return l.releaseFunc(weight), nil
	case <-ctx.Done():
		l.mu.Lock()
		if w.granted {
			// Lost the race: the grant landed between ctx firing and the
			// lock. Hand the capacity straight back.
			l.used -= weight
			l.grantLocked()
			l.mu.Unlock()
			return nil, ctx.Err()
		}
		for i, q := range l.queue {
			if q == w {
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				break
			}
		}
		l.mu.Unlock()
		return nil, ctx.Err()
	}
}

// releaseFunc returns the once-only release for an admitted weight.
func (l *Limiter) releaseFunc(weight int64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			l.mu.Lock()
			l.used -= weight
			l.grantLocked()
			l.mu.Unlock()
		})
	}
}

// grantLocked admits queued waiters, in order, while they fit. FIFO order
// is strict: a small request never jumps a large one, so heavy requests
// cannot starve.
func (l *Limiter) grantLocked() {
	for len(l.queue) > 0 && l.used+l.queue[0].weight <= l.capacity {
		w := l.queue[0]
		l.queue = l.queue[1:]
		l.used += w.weight
		w.granted = true
		close(w.ready)
	}
}

// Used returns the admitted weight.
func (l *Limiter) Used() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used
}

// Queued returns the number of waiting acquisitions.
func (l *Limiter) Queued() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// Capacity returns the limiter's total weight capacity.
func (l *Limiter) Capacity() int64 { return l.capacity }
