// Package resultcache is a content-addressed, single-flight cache of
// partition and sweep results for the serving layer. Where cut.Spectral
// memoizes one eigendecomposition inside one pipeline, this cache spans
// requests: a result is keyed by a canonical FNV-64 fingerprint of
// everything that determines it — road-graph structure, node densities,
// the normalized core.Config, the operation and its k range — so a
// byte-identical request is answered without recomputing Modules 1–3.
// The paper's own workloads motivate this: Section 6.4 re-partitions the
// same network as densities evolve, and the MFD literature (PAPERS.md)
// re-runs partitioning on rolling traffic snapshots, both dominated by
// previously-seen inputs.
//
// Concurrency follows the non-poisoning single-flight rule established
// for the eigendecomposition cache: concurrent lookups of the same key
// coalesce onto one computing flight; a flight that fails with the
// owner's context error is never cached or propagated to waiters — a
// live waiter promotes a fresh flight instead; non-context errors
// propagate to every waiter but still leave the cache empty, so a later
// request retries.
//
// Each entry also carries at most one alias: a digest of the raw request
// body that last resolved to its key (see Alias). A server that sees the
// same bytes again finds the entry by that digest and skips decoding and
// fingerprinting. Aliases live only in memory and leave with their entry.
//
// Capacity is a byte budget over the cached response bodies, evicted
// LRU. Everything is observable through internal/obs:
// roadpart_resultcache_events_total{op,result} plus bytes/entries
// gauges (see docs/API.md).
package resultcache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"sync"

	"roadpart/internal/obs"
)

// Key addresses one cached result: the operation name (its own keyspace,
// so a partition and a sweep of the same inputs never collide) and the
// canonical content fingerprint.
type Key struct {
	// Op is a short path-safe operation name ("partition", "sweep").
	Op string
	// Sum is the FNV-64a fingerprint of every input that determines the
	// result (see PartitionKey/SweepKey).
	Sum uint64
}

// String renders the key the way the disk store names files.
func (k Key) String() string { return fmt.Sprintf("%s-%016x", k.Op, k.Sum) }

// Alias identifies one raw request body: the op it was posted to, its
// length and its maphash sum under the owning Cache's seed. Two bodies
// with equal aliases are taken to be the same bytes. Two different
// bodies of one length and op collide with probability about 2⁻⁶⁴, and
// maphash, though not a cryptographic hash, is seeded per Cache with a
// seed that never leaves the process, so a client has no sums to search
// against. The zero Alias names no body.
type Alias struct {
	op  string
	n   int
	sum uint64
}

// Metric families. The events counter follows the pool-tally convention:
// one family, (op, result) labels, result ∈ hit | alias | miss |
// coalesced | evict | reject | store_error | warm | invalidate.
const (
	EventsFamily = "roadpart_resultcache_events_total"
	eventsHelp   = "Result-cache lookups and maintenance events, by operation and result (hit = served from memory, alias = a hit whose request body was found by its raw-bytes digest and never decoded (also counted as hit), miss = computed, coalesced = waited on an identical in-flight compute, evict = LRU eviction, reject = body larger than the budget, store_error = best-effort disk persistence failed, warm = loaded from the snapshot store at startup, invalidate = dropped because its fingerprint tag was superseded by a density update)."
	bytesHelp    = "Bytes of cached response bodies currently resident."
	entriesHelp  = "Cached results currently resident."
)

var (
	cacheBytes   = obs.Default().Gauge("roadpart_resultcache_bytes", bytesHelp)
	cacheEntries = obs.Default().Gauge("roadpart_resultcache_entries", entriesHelp)
)

// event counts one cache event on the process-wide registry.
func event(op, result string) {
	obs.Default().Counter(EventsFamily, eventsHelp, "op", op, "result", result).Inc()
}

// entryOverhead approximates the per-entry bookkeeping (map cell, list
// element, key) charged against the byte budget so that many tiny
// entries cannot blow past it.
const entryOverhead = 128

// Config tunes a Cache.
type Config struct {
	// MaxBytes bounds the resident body bytes (plus a small per-entry
	// overhead). Must be positive: a cache that can hold nothing is a
	// configuration error, and callers that want caching off simply do
	// not construct a Cache.
	MaxBytes int64
	// Dir, when non-empty, persists every cached entry as a
	// roadpart-cache/v1 snapshot file and warms the cache from existing
	// snapshots at construction, so a restarted daemon keeps its hot
	// set. Persistence is best-effort: disk failures are counted
	// (result="store_error") but never fail the request.
	Dir string
}

// flight is one in-progress compute that concurrent identical requests
// coalesce onto.
type flight struct {
	done chan struct{} // closed when the owner finishes
	body []byte        // valid after done when err == nil
	err  error
}

// entry is one resident result. tag groups entries by the
// (structure, density) generation they were computed from; 0 = untagged
// (CLI Puts and store-warmed entries), which only ages out via LRU.
type entry struct {
	key   Key
	body  []byte
	tag   uint64
	alias Alias // the body that last resolved to key; zero when none
	elem  *list.Element
}

// Cache is the content-addressed result cache. Safe for concurrent use.
type Cache struct {
	cfg   Config
	store *Store // nil when Dir is empty

	mu      sync.Mutex
	entries map[Key]*entry
	lru     *list.List // front = most recent; values are *entry
	bytes   int64
	flights map[Key]*flight
	tags    map[uint64]map[Key]*entry // secondary index; 0 is never a key
	aliases map[Alias]*entry          // secondary index; one alias per entry
	seed    maphash.Seed
}

// New constructs a Cache under cfg. It panics on a non-positive
// MaxBytes (a programmer error, mirrored after sync primitives that
// panic on misuse) and returns an error only when Dir is set but cannot
// be prepared.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxBytes <= 0 {
		panic("resultcache: Config.MaxBytes must be positive")
	}
	c := &Cache{
		cfg:     cfg,
		entries: make(map[Key]*entry),
		lru:     list.New(),
		flights: make(map[Key]*flight),
		tags:    make(map[uint64]map[Key]*entry),
		aliases: make(map[Alias]*entry),
		seed:    maphash.MakeSeed(),
	}
	if cfg.Dir != "" {
		st, err := OpenStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		c.store = st
		c.warm()
	}
	return c, nil
}

// warm loads every valid snapshot from the store into memory, oldest
// first so that LRU order roughly mirrors file modification time and
// the newest snapshots survive an over-budget warm-up.
func (c *Cache) warm() {
	ents, err := c.store.LoadAll()
	if err != nil {
		event("store", "store_error")
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range ents {
		if _, ok := c.entries[e.Key]; ok {
			continue
		}
		if c.insertLocked(e.Key, e.Body, 0) {
			event(e.Key.Op, "warm")
		}
	}
}

// Get returns the cached body for key, or (nil, false).
func (c *Cache) Get(key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		event(key.Op, "hit")
		return e.body, true
	}
	return nil, false
}

// Alias digests a raw request body posted to op.
func (c *Cache) Alias(op string, raw []byte) Alias {
	return Alias{op: op, n: len(raw), sum: maphash.Bytes(c.seed, raw)}
}

// Aliased returns the key of the resident entry that a's body last
// resolved to. It counts nothing and leaves recency alone, so a caller
// can route the request before deciding to serve it here.
func (c *Cache) Aliased(a Alias) (Key, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.aliases[a]; ok {
		return e.key, true
	}
	return Key{}, false
}

// GetAlias is Get by alias: it returns the body of the entry a's body
// last resolved to, counting the lookup as both hit and alias.
func (c *Cache) GetAlias(a Alias) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.aliases[a]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	event(e.key.Op, "hit")
	event(e.key.Op, "alias")
	return e.body, true
}

// SetAlias records that the body a digests resolved to key, once the
// caller has decoded and validated it. It replaces key's previous alias
// and does nothing when key is not resident, when a is zero or when a
// was posted to another op.
func (c *Cache) SetAlias(key Key, a Alias) {
	if a.op == "" || a.op != key.Op {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.alias == a {
		return
	}
	if prev, ok := c.aliases[a]; ok {
		prev.alias = Alias{}
	}
	if e.alias.op != "" {
		delete(c.aliases, e.alias)
	}
	e.alias = a
	c.aliases[a] = e
}

// Put inserts body under key unconditionally (no single-flight), for
// callers that computed outside the cache — the CLI snapshot path.
func (c *Cache) Put(key Key, body []byte) {
	c.mu.Lock()
	inserted := c.insertLocked(key, body, 0)
	c.mu.Unlock()
	if inserted {
		c.persist(key, body)
	}
}

// Len reports the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes reports the resident body bytes including per-entry overhead.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// GetOrCompute returns the body cached under key, coalescing concurrent
// identical requests onto a single compute. cached reports whether the
// body came from memory (a hit or a coalesced wait on another request's
// flight) rather than from this call's own compute. A successfully
// computed body is indexed under tag (see Tag) so a later
// InvalidateTag(tag) drops it in O(group); tag 0 means untagged.
//
// compute runs outside the cache lock under the caller's ctx. Following
// the non-poisoning rule, a compute that fails with ctx's own
// cancellation or deadline is never cached and never propagated to
// waiters from other requests: each live waiter re-checks and the first
// one promotes a fresh flight. Non-context errors propagate to all
// current waiters but are not cached, so the next request retries.
func (c *Cache) GetOrCompute(ctx context.Context, key Key, tag uint64, compute func(context.Context) ([]byte, error)) (body []byte, cached bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, fmt.Errorf("resultcache: %s lookup not started: %w", key.Op, err)
		}
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			event(key.Op, "hit")
			return e.body, true, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, false, fmt.Errorf("resultcache: abandoned wait for in-flight %s: %w", key.Op, ctx.Err())
			case <-f.done:
			}
			if f.err == nil {
				event(key.Op, "coalesced")
				return f.body, true, nil
			}
			if ctxErr(f.err) {
				// The owner's request died, not ours: loop to promote a
				// fresh flight (or join one a faster waiter started).
				continue
			}
			return nil, false, f.err
		}
		// No entry, no flight: this request owns the compute.
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		f.body, f.err = compute(ctx)

		c.mu.Lock()
		delete(c.flights, key)
		inserted := f.err == nil && c.insertLocked(key, f.body, tag)
		c.mu.Unlock()
		close(f.done)
		if f.err != nil {
			return nil, false, f.err
		}
		event(key.Op, "miss")
		if inserted {
			c.persist(key, f.body)
		}
		return f.body, false, nil
	}
}

// insertLocked adds body under key, evicting LRU entries until the
// budget holds. It reports whether the body was actually inserted — a
// body larger than the whole budget is rejected (and counted) rather
// than evicting everything for nothing. Callers hold the lock.
func (c *Cache) insertLocked(key Key, body []byte, tag uint64) bool {
	cost := int64(len(body)) + entryOverhead
	if cost > c.cfg.MaxBytes {
		event(key.Op, "reject")
		return false
	}
	if e, ok := c.entries[key]; ok {
		// Same content hash ⇒ same body; just refresh recency.
		c.lru.MoveToFront(e.elem)
		return false
	}
	for c.bytes+cost > c.cfg.MaxBytes {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest.Value.(*entry), "evict")
	}
	e := &entry{key: key, body: body, tag: tag}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	if tag != 0 {
		group := c.tags[tag]
		if group == nil {
			group = make(map[Key]*entry)
			c.tags[tag] = group
		}
		group[key] = e
	}
	c.bytes += cost
	cacheBytes.Set(float64(c.bytes))
	cacheEntries.Set(float64(c.lru.Len()))
	return true
}

// removeLocked drops one entry, counting it under result. Callers hold
// the lock.
func (c *Cache) removeLocked(e *entry, result string) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	if e.tag != 0 {
		if group := c.tags[e.tag]; group != nil {
			delete(group, e.key)
			if len(group) == 0 {
				delete(c.tags, e.tag)
			}
		}
	}
	if e.alias.op != "" {
		delete(c.aliases, e.alias)
	}
	c.bytes -= int64(len(e.body)) + entryOverhead
	cacheBytes.Set(float64(c.bytes))
	cacheEntries.Set(float64(c.lru.Len()))
	event(e.key.Op, result)
}

// InvalidateTag drops every resident entry carrying tag and, when a
// snapshot store is attached, best-effort removes their snapshot files.
// It returns the number of entries dropped. The streaming layer calls
// this when a density update supersedes the network state the tag
// fingerprints; content-addressed keys mean the dropped entries could
// never have served a wrong answer, but without invalidation a daemon
// cycling through density states would pin dead generations in the LRU
// budget until they aged out.
func (c *Cache) InvalidateTag(tag uint64) int {
	if tag == 0 {
		return 0
	}
	c.mu.Lock()
	group := c.tags[tag]
	dropped := make([]Key, 0, len(group))
	for key, e := range group {
		c.removeLocked(e, "invalidate")
		dropped = append(dropped, key)
	}
	c.mu.Unlock()
	if c.store != nil {
		for _, key := range dropped {
			if err := c.store.Remove(key); err != nil {
				event(key.Op, "store_error")
			}
		}
	}
	return len(dropped)
}

// persist writes one entry to the snapshot store, best-effort.
func (c *Cache) persist(key Key, body []byte) {
	if c.store == nil {
		return
	}
	if err := c.store.Write(key, body); err != nil {
		event(key.Op, "store_error")
	}
}

// ctxErr reports whether err is the context's own cancellation or
// deadline — the class of failures that must never poison the cache.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
