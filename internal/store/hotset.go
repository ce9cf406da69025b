package store

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// The hot set is the in-memory tier in front of the segment: a byte-bounded
// cache of recently served payloads (and, via attach, their decoded
// values) so warm reads skip the pread, the checksum verification and the
// decode entirely. Admission is frequency-based in the TinyLFU style: a
// count-min sketch of 4-bit counters estimates how often each key has been
// asked for, and a newcomer only displaces a resident entry when its
// estimate beats the victim's — one-shot scans (a campaign streaming over
// thousands of cells once) cannot wash out the keys that are actually hot.
// Eviction is a segmented LRU: entries land in a probation segment and are
// promoted to a protected segment on their second hit; the probation tail
// is the eviction victim, so proven-hot entries are not sacrificed to
// passing traffic.
//
// The set is striped: each of hotStripes stripes owns a mutex, its share
// of the byte budget, its own sketch and its own LRU lists, so concurrent
// writers on different stripes do not contend. Hits are lock-free: the
// resident map is a sync.Map of immutable entries, and the policy work a
// hit owes (sketch increment, LRU touch) is recorded in a small lossy
// ring and drained in FIFO order by the next operation that holds the
// stripe mutex — the read-buffer scheme TinyLFU caches use so a cache
// hit never queues behind policy maintenance. Entries are never mutated
// after publication; refreshing a resident key replaces its node.

const (
	hotStripes = 16
	// protectedShare is the fraction of a stripe's budget the protected
	// segment may hold; the rest is probation.
	protectedShare = 0.8
	// hotEntryOverhead approximates per-entry bookkeeping (map slot, list
	// links, header) charged on top of the payload bytes.
	hotEntryOverhead = 128
	// sketchDepth is the number of count-min rows.
	sketchDepth = 4
	// hotRingSize is the per-stripe read-buffer capacity (power of two).
	// When it fills, one reader opportunistically drains it; overwrites
	// under contention just drop touches, which a frequency sketch absorbs.
	hotRingSize = 64
)

// hotView is the copied-out result of a hot-set lookup.
type hotView struct {
	typeName string
	payload  []byte
	value    any
}

// HotStats is a snapshot of the hot set's counters.
type HotStats struct {
	Entries  int
	Bytes    int64
	MaxBytes int64
	Hits     uint64
	Misses   uint64
	Admits   uint64
	Rejects  uint64
	Evicts   uint64
}

type hotSet struct {
	maxBytes int64
	stripes  [hotStripes]hotStripe
}

type hotStripe struct {
	// entries maps key -> *hotEntry and is read lock-free on the hit path.
	// All other policy state below mu is only touched with mu held.
	entries sync.Map

	mu        sync.Mutex
	maxBytes  int64
	bytes     int64
	count     int
	protCap   int64
	protBytes int64
	probation hotList
	protected hotList
	sketch    cmSketch

	admits, rejects, evicts uint64

	hits, misses atomic.Uint64

	// ring is the lossy read buffer: hits (and miss markers, which carry
	// only a hash) park here until a mutex holder drains them into the
	// sketch and LRU lists. ringTail is only advanced under mu.
	ring     [hotRingSize]atomic.Pointer[hotEntry]
	ringHead atomic.Uint64
	ringTail atomic.Uint64
}

// hotEntry is immutable once published to a stripe's entries map; lock-free
// readers may hold a reference indefinitely. dead is set (under the stripe
// mutex) when the entry leaves the map, so a stale ring reference is never
// re-linked into an LRU list. Miss markers are born dead: they exist only
// to carry a hash into the sketch.
type hotEntry struct {
	key        string
	hash       uint64
	typeName   string
	payload    []byte
	value      any
	cost       int64
	prev, next *hotEntry
	protected  bool
	dead       bool
}

// newHotSet builds a hot set bounded to maxBytes across all stripes.
func newHotSet(maxBytes int64) *hotSet {
	h := &hotSet{maxBytes: maxBytes}
	per := maxBytes / hotStripes
	if per < 4096 {
		per = 4096
	}
	// Size each stripe's sketch for the entries its budget can plausibly
	// hold, assuming ~1 KiB payloads; extra counters only cost bits.
	counters := nextPow2(int(per / 256))
	if counters < 1024 {
		counters = 1024
	}
	if counters > 1<<17 {
		counters = 1 << 17
	}
	for i := range h.stripes {
		st := &h.stripes[i]
		st.maxBytes = per
		st.protCap = int64(float64(per) * protectedShare)
		st.sketch.init(counters)
	}
	return h
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// hotSeed randomises hotHash per process. The hot set is in-memory only,
// so its hash owes no cross-process stability.
var hotSeed = maphash.MakeSeed()

// hotHash is the one hash the stripe choice and all sketch rows are
// derived from. maphash rides the runtime's hardware-accelerated string
// hash — lab keys are 64-character digests, where byte-at-a-time FNV is
// measurable on the hot-hit path.
func hotHash(key string) uint64 {
	return maphash.String(hotSeed, key)
}

func (h *hotSet) stripeFor(hash uint64) *hotStripe {
	return &h.stripes[(hash>>32^hash)%hotStripes]
}

// get looks key up without taking the stripe mutex. The frequency count
// and (on a hit) the LRU touch are recorded in the read ring and applied
// at the next drain, so a hit costs one hash, one lock-free map load and
// one ring store.
func (h *hotSet) get(key string) (hotView, bool) {
	hash := hotHash(key)
	st := h.stripeFor(hash)
	if v, ok := st.entries.Load(key); ok {
		e := v.(*hotEntry)
		st.hits.Add(1)
		st.recordRead(e)
		return hotView{typeName: e.typeName, payload: e.payload, value: e.value}, true
	}
	st.misses.Add(1)
	// A miss still feeds the sketch — that is how a twice-requested
	// newcomer out-duels a stale resident at admission time.
	st.recordRead(&hotEntry{hash: hash, dead: true})
	return hotView{}, false
}

// recordRead parks a touch in the ring. When the ring fills, whoever
// notices tries (without blocking) to take the stripe mutex and drain;
// losers simply continue, overwriting the oldest undrained slot — lost
// touches only shave approximate frequency counts.
func (st *hotStripe) recordRead(e *hotEntry) {
	idx := st.ringHead.Add(1) - 1
	st.ring[idx&(hotRingSize-1)].Store(e)
	if idx+1-st.ringTail.Load() >= hotRingSize {
		if st.mu.TryLock() {
			st.drainLocked()
			st.mu.Unlock()
		}
	}
}

// drainLocked applies every parked read, oldest first: sketch increment
// always, LRU touch only for entries still resident. Stripe mutex held.
// Every mutex-holding operation drains before its own work, so a
// single-threaded get-then-add sequence observes the same sketch and LRU
// state as if each get had updated them inline.
func (st *hotStripe) drainLocked() {
	head := st.ringHead.Load()
	for tail := st.ringTail.Load(); tail < head; tail++ {
		e := st.ring[tail&(hotRingSize-1)].Swap(nil)
		st.ringTail.Store(tail + 1)
		if e == nil {
			continue // slot claimed but not yet written, or already drained
		}
		st.sketch.inc(e.hash)
		if !e.dead {
			st.touch(e)
		}
	}
}

// touch moves e to the front of its segment, promoting a probation entry
// to protected (and demoting the protected overflow back to probation).
// Stripe mutex held.
func (st *hotStripe) touch(e *hotEntry) {
	if e.protected {
		st.protected.moveToFront(e)
		return
	}
	st.probation.remove(e)
	e.protected = true
	st.protected.pushFront(e)
	st.protBytes += e.cost
	for st.protBytes > st.protCap {
		tail := st.protected.back()
		if tail == nil {
			break
		}
		st.protected.remove(tail)
		tail.protected = false
		st.probation.pushFront(tail)
		st.protBytes -= tail.cost
	}
}

// add offers (key, payload) for admission; value may carry the decoded
// form. A resident key is refreshed by node replacement (entries are
// immutable once lock-free readers can see them). Returns whether the
// entry is resident afterwards.
func (h *hotSet) add(key, typeName string, payload []byte, value any) bool {
	hash := hotHash(key)
	st := h.stripeFor(hash)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.drainLocked()
	st.sketch.inc(hash)
	if v, ok := st.entries.Load(key); ok {
		old := v.(*hotEntry)
		ne := old.clone()
		if old.payload == nil && payload != nil {
			ne.cost += int64(len(payload))
			ne.payload = payload
		}
		if value != nil {
			ne.value = value
		}
		ne.typeName = typeName
		st.replace(old, ne)
		st.touch(ne)
		return true
	}
	cost := int64(len(payload)) + int64(len(key)) + hotEntryOverhead
	return st.insert(&hotEntry{key: key, hash: hash, typeName: typeName,
		payload: payload, value: value, cost: cost})
}

// attach records the decoded value for key: on a resident entry via node
// replacement, otherwise by offering a value-only entry (costed as if it
// held the payload, since the decoded form is at least that large) for
// admission.
func (h *hotSet) attach(key string, value any, payloadLen int64) {
	hash := hotHash(key)
	st := h.stripeFor(hash)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.drainLocked()
	if v, ok := st.entries.Load(key); ok {
		old := v.(*hotEntry)
		ne := old.clone()
		ne.value = value
		st.replace(old, ne)
		return
	}
	cost := payloadLen + int64(len(key)) + hotEntryOverhead
	st.insert(&hotEntry{key: key, hash: hash, value: value, cost: cost})
}

// clone copies an entry's payload-bearing fields for node replacement;
// list links and liveness are set by replace.
func (e *hotEntry) clone() *hotEntry {
	return &hotEntry{key: e.key, hash: e.hash, typeName: e.typeName,
		payload: e.payload, value: e.value, cost: e.cost}
}

// replace swaps ne into old's position in its LRU list and the entries
// map, marking old dead so a stale ring reference cannot resurrect it.
// Stripe mutex held.
func (st *hotStripe) replace(old, ne *hotEntry) {
	ne.protected = old.protected
	l := &st.probation
	if old.protected {
		l = &st.protected
	}
	ne.prev, ne.next = old.prev, old.next
	if old.prev != nil {
		old.prev.next = ne
	} else {
		l.head = ne
	}
	if old.next != nil {
		old.next.prev = ne
	} else {
		l.tail = ne
	}
	old.prev, old.next = nil, nil
	old.dead = true
	st.entries.Store(ne.key, ne)
	st.bytes += ne.cost - old.cost
	if ne.protected {
		st.protBytes += ne.cost - old.cost
	}
}

// insert runs the admission policy and, when the candidate wins, makes
// room and links it into probation. Stripe mutex held.
func (st *hotStripe) insert(e *hotEntry) bool {
	if e.cost > st.maxBytes {
		st.rejects++
		tmHotRejects.Inc()
		return false
	}
	for st.bytes+e.cost > st.maxBytes {
		victim := st.probation.back()
		if victim == nil {
			victim = st.protected.back()
		}
		if victim == nil {
			st.rejects++
			tmHotRejects.Inc()
			return false
		}
		// TinyLFU admission: the newcomer must have been asked for at
		// least as often as the entry it would displace.
		if st.sketch.estimate(e.hash) < st.sketch.estimate(victim.hash) {
			st.rejects++
			tmHotRejects.Inc()
			return false
		}
		st.evict(victim)
		st.evicts++
		tmHotEvicts.Inc()
	}
	st.entries.Store(e.key, e)
	st.count++
	st.probation.pushFront(e)
	st.bytes += e.cost
	st.admits++
	tmHotAdmits.Inc()
	return true
}

// evict unlinks an entry and marks it dead. Stripe mutex held.
func (st *hotStripe) evict(e *hotEntry) {
	if e.protected {
		st.protected.remove(e)
		st.protBytes -= e.cost
	} else {
		st.probation.remove(e)
	}
	e.dead = true
	st.entries.Delete(e.key)
	st.count--
	st.bytes -= e.cost
}

// remove drops key if resident (Invalidate).
func (h *hotSet) remove(key string) {
	st := h.stripeFor(hotHash(key))
	st.mu.Lock()
	defer st.mu.Unlock()
	st.drainLocked()
	if v, ok := st.entries.Load(key); ok {
		st.evict(v.(*hotEntry))
	}
}

// stats sums the stripe counters.
func (h *hotSet) stats() HotStats {
	out := HotStats{MaxBytes: h.maxBytes}
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		st.drainLocked()
		out.Entries += st.count
		out.Bytes += st.bytes
		out.Hits += st.hits.Load()
		out.Misses += st.misses.Load()
		out.Admits += st.admits
		out.Rejects += st.rejects
		out.Evicts += st.evicts
		st.mu.Unlock()
	}
	return out
}

// hotList is an intrusive doubly-linked LRU list (front = most recent).
type hotList struct {
	head, tail *hotEntry
}

func (l *hotList) pushFront(e *hotEntry) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *hotList) remove(e *hotEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *hotList) moveToFront(e *hotEntry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

func (l *hotList) back() *hotEntry { return l.tail }

// cmSketch is a count-min sketch of 4-bit saturating counters, sixteen to
// a word. All rows index one shared word array; each row rehashes the key
// hash with its own odd multiplier. When the total increments since the
// last reset exceed sampleFactor times the counter count, every counter is
// halved — the classic TinyLFU aging that lets yesterday's hot keys cool
// off.
type cmSketch struct {
	words  []uint64
	mask   uint64 // counters-1 (counters is a power of two)
	incs   int
	sample int
}

const sketchSampleFactor = 8

// sketchSeeds are odd 64-bit mix constants, one per row.
var sketchSeeds = [sketchDepth]uint64{
	0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0xd6e8feb86659fd93,
}

func (c *cmSketch) init(counters int) {
	c.words = make([]uint64, counters*sketchDepth/16)
	c.mask = uint64(counters - 1)
	c.sample = counters * sketchSampleFactor
}

// slot maps (hash, row) to its word and shift.
func (c *cmSketch) slot(hash uint64, row int) (word int, shift uint) {
	h := hash * sketchSeeds[row]
	idx := (h >> 32) & c.mask
	counter := uint64(row)*(c.mask+1) + idx
	return int(counter / 16), uint(counter % 16 * 4)
}

// inc bumps the key's counter in every row, saturating at 15.
func (c *cmSketch) inc(hash uint64) {
	for row := 0; row < sketchDepth; row++ {
		w, s := c.slot(hash, row)
		if v := c.words[w] >> s & 0xf; v < 15 {
			c.words[w] += 1 << s
		}
	}
	if c.incs++; c.incs >= c.sample {
		c.age()
	}
}

// estimate returns the minimum counter across rows.
func (c *cmSketch) estimate(hash uint64) uint64 {
	min := uint64(15)
	for row := 0; row < sketchDepth; row++ {
		w, s := c.slot(hash, row)
		if v := c.words[w] >> s & 0xf; v < min {
			min = v
		}
	}
	return min
}

// age halves every counter.
func (c *cmSketch) age() {
	tmHotSketchResets.Inc()
	for i, w := range c.words {
		c.words[i] = w >> 1 & 0x7777777777777777
	}
	c.incs = 0
}
