package jobs

import (
	"container/list"

	"rendelim/internal/gpusim"
)

// lru is a fixed-capacity least-recently-used result cache keyed by job
// signature. It is the job-level analogue of the Signature Buffer: a key hit
// means the whole simulation is eliminated. Not safe for concurrent use; the
// Pool serializes access under its mutex. An entry points at the Result its
// job's call published, so a completed job's stats are held once; nobody
// writes a Result after publishing it.
type lru struct {
	cap   int
	order *list.List // front = most recent; values are *lruEntry
	index map[Key]*list.Element
}

type lruEntry struct {
	key Key
	res *gpusim.Result
}

func newLRU(capacity int) *lru {
	if capacity < 1 {
		capacity = 1
	}
	return &lru{cap: capacity, order: list.New(), index: make(map[Key]*list.Element)}
}

func (c *lru) get(key Key) (*gpusim.Result, bool) {
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

func (c *lru) put(key Key, res *gpusim.Result) {
	if el, ok := c.index[key]; ok {
		el.Value.(*lruEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.index[key] = c.order.PushFront(&lruEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.index, oldest.Value.(*lruEntry).key)
	}
}

func (c *lru) len() int { return c.order.Len() }
