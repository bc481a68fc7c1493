package serve

import (
	"container/list"
	"sync"
)

// cached is one canonicalized response body held by the result cache. Only
// successful (2xx) responses are cached; errors always recompute.
type cached struct {
	key   string
	ctype string // Content-Type of the stored body
	body  []byte
}

func (c *cached) size() int64 { return int64(len(c.key) + len(c.body) + 64) }

// lruCache is a bounded LRU over canonical request keys: both an entry count
// bound and a byte bound, whichever trips first. The zero bounds disable the
// respective limit; an entry larger than the byte bound alone is never
// admitted. Safe for concurrent use.
type lruCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element

	misses, evictions int64
}

func newLRUCache(maxEntries int, maxBytes int64) *lruCache {
	return &lruCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// get returns the cached response for key, bumping its recency.
func (c *lruCache) get(key string) (*cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cached), true
}

// put inserts (or refreshes) an entry, then evicts from the cold end until
// both bounds hold again.
func (c *lruCache) put(e *cached) {
	if c.maxBytes > 0 && e.size() > c.maxBytes {
		return // would evict the whole cache for one entry
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok {
		c.bytes += e.size() - el.Value.(*cached).size()
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.items[e.key] = c.ll.PushFront(e)
		c.bytes += e.size()
	}
	for (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		el := c.ll.Back()
		if el == nil {
			break
		}
		old := el.Value.(*cached)
		c.ll.Remove(el)
		delete(c.items, old.key)
		c.bytes -= old.size()
		c.evictions++
	}
}

// export returns the cache contents cold end first, so replaying the slice
// through put restores both the contents and the recency order. Entries are
// shared, not copied: a cached body is immutable once constructed, and an
// entry rejected by put (oversize) can never appear here because rejection
// happens before the entry is linked in.
func (c *lruCache) export() []*cached {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*cached, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*cached))
	}
	return out
}

// stats snapshots the counters and current occupancy. Hits are counted
// once, by the server's xcache.hit.
func (c *lruCache) stats() (misses, evictions, entries, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses, c.evictions, int64(c.ll.Len()), c.bytes
}
