package ticket

import (
	"encoding/binary"
	"sync"
	"time"
)

// replayShards is the number of independently locked cache shards. Replay
// IDs carry a per-key counter in their low bytes, so consecutive tickets
// spread uniformly and two resuming connections almost never contend on
// one shard lock.
const replayShards = 16

// sweepThreshold is the per-shard entry count past which an insert pays
// for an expiry sweep, bounding memory without a background goroutine.
const sweepThreshold = 4096

// ReplayCache makes tickets single-use: Seen records a replay ID the
// first time it appears and reports any later appearance. Entries expire
// with their ticket, so the cache holds at most one ticket lifetime of
// resumptions. Safe for concurrent use; sharded so the per-resumption
// critical section is one map operation.
type ReplayCache struct {
	shards [replayShards]replayShard
	now    func() time.Time
}

type replayShard struct {
	mu   sync.Mutex
	seen map[[ReplayIDLen]byte]int64 // replay ID → expiry, unix ms
}

// NewReplayCache builds an empty cache. The optional clock override is
// the expiry test hook; pass nil for time.Now.
func NewReplayCache(now func() time.Time) *ReplayCache {
	if now == nil {
		now = time.Now
	}
	c := &ReplayCache{now: now}
	for i := range c.shards {
		c.shards[i].seen = make(map[[ReplayIDLen]byte]int64)
	}
	return c
}

// Seen records the replay ID (valid until expiry) and reports whether it
// had been recorded before. The first caller for an ID gets false and
// claims the ticket; every subsequent caller gets true.
func (c *ReplayCache) Seen(id [ReplayIDLen]byte, expiry time.Time) bool {
	// The nonce counter occupies the trailing bytes; fold them into the
	// shard index so sequential tickets stripe across shards.
	sh := &c.shards[binary.BigEndian.Uint64(id[8:])%replayShards]
	nowMS := c.now().UnixMilli()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if exp, ok := sh.seen[id]; ok && exp >= nowMS {
		return true
	}
	if len(sh.seen) >= sweepThreshold {
		for k, exp := range sh.seen {
			if exp < nowMS {
				delete(sh.seen, k)
			}
		}
	}
	sh.seen[id] = expiry.UnixMilli()
	return false
}
