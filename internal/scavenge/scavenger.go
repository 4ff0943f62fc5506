package scavenge

import (
	"sync"
	"sync/atomic"
	"time"
)

// Target is the allocator surface the background scavenger drives. Both
// methods are try-based: ok=false means the global heap was too contended to
// even inspect, and the scavenger backs off exponentially — it must never
// queue behind allocation traffic.
type Target interface {
	// EmptyBytes reports the committed bytes parked in empty superblocks
	// on the global heap.
	EmptyBytes() (bytes int64, ok bool)
	// Scavenge decommits up to maxBytes of empties parked at least
	// coldAge ago, oldest first, returning the bytes released.
	Scavenge(maxBytes int64, coldAge time.Duration) (released int64, ok bool)
}

// Stats is a snapshot of a Scavenger's activity.
type Stats struct {
	// Wakeups counts poll-loop iterations.
	Wakeups int64
	// Passes counts scavenge passes that released at least one byte.
	Passes int64
	// ReleasedBytes is the cumulative bytes this scavenger released.
	ReleasedBytes int64
	// Backoffs counts polls aborted because the global heap was contended.
	Backoffs int64
}

// Scavenger runs the release policy in a background goroutine against a
// Target. Start and Stop are idempotent pairs; Stop waits for the goroutine
// to exit, so the allocator may be torn down immediately after.
type Scavenger struct {
	target Target
	cfg    Config

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}

	wakeups  atomic.Int64
	passes   atomic.Int64
	released atomic.Int64
	backoffs atomic.Int64
}

// New builds a Scavenger (not yet running) over the target. It panics on an
// invalid config.
func New(target Target, cfg Config) *Scavenger {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Scavenger{target: target, cfg: cfg.WithDefaults()}
}

// Start launches the background goroutine. Starting a running scavenger is a
// no-op.
func (s *Scavenger) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.stop, s.done)
}

// Stop halts the background goroutine and waits for it to exit. Stopping a
// stopped scavenger is a no-op.
func (s *Scavenger) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Running reports whether the background goroutine is live.
func (s *Scavenger) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stop != nil
}

// Stats snapshots the scavenger's counters.
func (s *Scavenger) Stats() Stats {
	return Stats{
		Wakeups:       s.wakeups.Load(),
		Passes:        s.passes.Load(),
		ReleasedBytes: s.released.Load(),
		Backoffs:      s.backoffs.Load(),
	}
}

func (s *Scavenger) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	pacer := NewPacer(s.cfg)
	timer := time.NewTimer(s.cfg.Interval)
	defer timer.Stop()
	delay := s.cfg.Interval
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		s.wakeups.Add(1)
		delay = s.tick(pacer, delay)
		timer.Reset(delay)
	}
}

// tick runs one poll: inspect, pace, maybe scavenge. It returns the delay
// until the next poll — the configured interval normally, doubled (up to
// MaxBackoff) after a contended inspection or pass.
func (s *Scavenger) tick(pacer *Pacer, delay time.Duration) time.Duration {
	empty, ok := s.target.EmptyBytes()
	if !ok {
		s.backoffs.Add(1)
		return s.backoff(delay)
	}
	grant := pacer.Grant(empty, time.Now().UnixNano())
	if grant <= 0 {
		return s.cfg.Interval
	}
	released, ok := s.target.Scavenge(grant, s.cfg.ColdAge)
	if !ok {
		s.backoffs.Add(1)
		return s.backoff(delay)
	}
	pacer.Spend(released)
	if released > 0 {
		s.passes.Add(1)
		s.released.Add(released)
	}
	return s.cfg.Interval
}

func (s *Scavenger) backoff(delay time.Duration) time.Duration {
	delay *= 2
	if delay > s.cfg.MaxBackoff {
		delay = s.cfg.MaxBackoff
	}
	if delay < s.cfg.Interval {
		delay = s.cfg.Interval
	}
	return delay
}
