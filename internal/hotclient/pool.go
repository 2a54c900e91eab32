package hotclient

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/hotindex/hot/internal/wire"
)

// PoolOptions tunes a Pool. Zero values pick the documented defaults.
type PoolOptions struct {
	// Conns is the number of connections (and therefore the request
	// concurrency ceiling). Default 4.
	Conns int
	// DialTimeout bounds each (re)connect. Default DefaultDialTimeout.
	DialTimeout time.Duration
	// OpTimeout bounds each round trip on a pooled connection; a wedged
	// server fails the operation instead of stranding the slot. 0 leaves
	// operations unbounded.
	OpTimeout time.Duration
	// Retries is how many times an idempotent operation is re-attempted
	// on a fresh connection after a transport error. Default 2; negative
	// disables retry.
	Retries int
	// RetryBackoff is the first retry delay; it doubles per attempt.
	// Default 10ms.
	RetryBackoff time.Duration
}

func (o PoolOptions) defaults() PoolOptions {
	if o.Conns <= 0 {
		o.Conns = 4
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 10 * time.Millisecond
	}
	return o
}

// Pool is a fixed-size pool of Clients that is safe for concurrent use and
// retries idempotent operations across transport failures. Each operation
// borrows one connection for its whole round trip, so pipelining is per
// operation: a pooled Set is "pipeline one frame + Flush", trading the
// single-connection batching win for concurrency and per-op error
// containment.
//
// Retry policy: a *ServerError is returned immediately — the transport is
// fine, the server answered, retrying the same request changes nothing. A
// transport error (dial failure, timeout, reset, short read) closes the
// connection and retries the operation on a fresh one, with doubling
// backoff. Only idempotent operations are retried: GET/SCAN/BATCH/STATS
// are pure reads, and SET/DEL converge to the same state when applied
// twice. ADD is deliberately never retried — if the connection dies after
// the frame was sent but before the ack, a retried ADD would be rejected
// as a duplicate and the caller would see "key exists" for a write that
// actually won; surfacing the transport error keeps the ambiguity visible.
type Pool struct {
	addr    string
	opts    PoolOptions
	free    chan *Client // nil element = slot exists but not dialed
	closed  atomic.Bool
	retries atomic.Uint64 // transport-error retry attempts
	dials   atomic.Uint64

	mu   sync.Mutex
	live map[*Client]struct{} // dialed clients, for Close
}

// NewPool creates a pool of opts.Conns lazily-dialed connections to addr.
// No connection is made until the first operation needs one.
func NewPool(addr string, opts PoolOptions) *Pool {
	opts = opts.defaults()
	p := &Pool{
		addr: addr,
		opts: opts,
		free: make(chan *Client, opts.Conns),
		live: make(map[*Client]struct{}),
	}
	for i := 0; i < opts.Conns; i++ {
		p.free <- nil
	}
	return p
}

// Retries returns how many transport-error retry attempts the pool has
// made since creation.
func (p *Pool) Retries() uint64 { return p.retries.Load() }

// Dials returns how many connections the pool has established (initial
// dials plus replacements after transport errors).
func (p *Pool) Dials() uint64 { return p.dials.Load() }

// Close closes every pooled connection. In-flight operations fail with
// connection errors; subsequent operations fail immediately.
func (p *Pool) Close() error {
	p.closed.Store(true)
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.live {
		c.Close()
	}
	p.live = make(map[*Client]struct{})
	return nil
}

var errPoolClosed = &ServerError{Msg: "pool closed"}

// borrow takes a slot, dialing if it is empty.
func (p *Pool) borrow() (*Client, error) {
	if p.closed.Load() {
		return nil, errPoolClosed
	}
	c := <-p.free
	if c != nil {
		return c, nil
	}
	c, err := DialTimeout(p.addr, p.opts.DialTimeout)
	if err != nil {
		p.free <- nil // return the empty slot
		return nil, err
	}
	p.dials.Add(1)
	if p.opts.OpTimeout > 0 {
		c.SetOpTimeout(p.opts.OpTimeout)
	}
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		c.Close()
		p.free <- nil
		return nil, errPoolClosed
	}
	p.live[c] = struct{}{}
	p.mu.Unlock()
	return c, nil
}

// discard closes a connection whose stream state is unknown and frees its
// slot for a fresh dial.
func (p *Pool) discard(c *Client) {
	p.mu.Lock()
	delete(p.live, c)
	p.mu.Unlock()
	c.Close()
	p.free <- nil
}

// do runs fn on a borrowed connection, retrying on transport errors when
// the operation is idempotent.
func (p *Pool) do(idempotent bool, fn func(c *Client) error) error {
	backoff := p.opts.RetryBackoff
	for attempt := 0; ; attempt++ {
		c, err := p.borrow()
		if err == nil {
			err = fn(c)
			if err == nil {
				p.free <- c
				return nil
			}
			if se, ok := err.(*ServerError); ok {
				// Server answered; the reply stream is still in sync.
				p.free <- c
				return se
			}
			p.discard(c)
		}
		if !idempotent || attempt >= p.opts.Retries || p.closed.Load() {
			return err
		}
		p.retries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// Get looks up key. Retried on transport errors (pure read).
func (p *Pool) Get(key []byte) (tid uint64, found bool, err error) {
	err = p.do(true, func(c *Client) error {
		var e error
		tid, found, e = c.Get(key)
		return e
	})
	return tid, found, err
}

// Set upserts tid under key and waits for the server's flush barrier.
// Retried on transport errors: re-applying an upsert is idempotent.
func (p *Pool) Set(key []byte, tid uint64) error {
	return p.do(true, func(c *Client) error {
		if err := c.Set(key, tid); err != nil {
			return err
		}
		_, _, err := c.Flush()
		return err
	})
}

// Add inserts tid under key (rejected if key exists; rejections show up
// in the server-wide flush/Stats totals, which are cumulative — there is
// no per-op delta once connections are shared). NOT retried: see the Pool
// doc comment — a retried ADD that won its first attempt would surface as
// a duplicate rejection.
func (p *Pool) Add(key []byte, tid uint64) error {
	return p.do(false, func(c *Client) error {
		if err := c.Add(key, tid); err != nil {
			return err
		}
		_, _, err := c.Flush()
		return err
	})
}

// Del deletes key and waits for the flush barrier. Retried on transport
// errors: re-deleting is idempotent.
func (p *Pool) Del(key []byte) error {
	return p.do(true, func(c *Client) error {
		if err := c.Del(key); err != nil {
			return err
		}
		_, _, err := c.Flush()
		return err
	})
}

// Scan returns up to max entries with key ≥ start. Retried (pure read).
func (p *Pool) Scan(start []byte, max int) (entries []Entry, err error) {
	err = p.do(true, func(c *Client) error {
		var e error
		entries, e = c.Scan(start, max)
		return e
	})
	return entries, err
}

// GetBatch looks up every key. Retried (pure read).
func (p *Pool) GetBatch(keys [][]byte, out []uint64) (found []bool, err error) {
	err = p.do(true, func(c *Client) error {
		var e error
		found, e = c.GetBatch(keys, out)
		return e
	})
	return found, err
}

// Stats fetches the server's STATS rows. Retried (pure read).
func (p *Pool) Stats() (st wire.Stats, err error) {
	err = p.do(true, func(c *Client) error {
		var e error
		st, e = c.Stats()
		return e
	})
	return st, err
}
