package partition

// buckets is the Fiduccia–Mattheyses gain-bucket structure: per side, one
// list of free cells per key (FM gain, KL D-value), the lists threaded
// through the cells themselves. Keys lie in [-pmax, pmax] — a cell's key
// is a sum of ±1 over its pins — so an array of 2*pmax+1 heads indexed by
// key+pmax holds them all, and insert, remove and update are O(1). Insertion
// is at the head (LIFO): among equal keys the most recently touched cell
// goes first, which is the tie-break the FM literature found cuts best.
type buckets struct {
	pmax       int32
	head       [2][]int32 // head[s][key+pmax]: first cell of the list, -1 if none
	top        [2]int32   // no slot of side s above top[s] is occupied
	next, prev []int32    // per cell; -1 ends a list
	key        []int32    // per cell
}

// reset empties the structure for n cells with keys in [-pmax, pmax].
func (b *buckets) reset(n int, pmax int32) {
	b.pmax = pmax
	for s := range b.head {
		b.head[s] = sized(b.head[s], int(2*pmax+1))
		for i := range b.head[s] {
			b.head[s][i] = -1
		}
		b.top[s] = -1
	}
	b.next, b.prev, b.key = sized(b.next, n), sized(b.prev, n), sized(b.key, n)
}

func (b *buckets) insert(s uint8, v, key int32) {
	slot := key + b.pmax
	h := b.head[s][slot]
	b.key[v], b.next[v], b.prev[v] = key, h, -1
	if h >= 0 {
		b.prev[h] = v
	}
	b.head[s][slot] = v
	b.top[s] = max(b.top[s], slot)
}

func (b *buckets) remove(s uint8, v int32) {
	nx, pv := b.next[v], b.prev[v]
	if nx >= 0 {
		b.prev[nx] = pv
	}
	if pv >= 0 {
		b.next[pv] = nx
	} else {
		b.head[s][b.key[v]+b.pmax] = nx
	}
}

// update changes free cell v's key by delta.
func (b *buckets) update(s uint8, v, delta int32) {
	b.remove(s, v)
	b.insert(s, v, b.key[v]+delta)
}

// best returns side s's free cell of greatest key, or -1 if it has none.
// The cursor only moves down past slots found empty, and up on insert, so
// a pass spends O(pmax + updates) here in total.
func (b *buckets) best(s uint8) int32 {
	for b.top[s] >= 0 && b.head[s][b.top[s]] < 0 {
		b.top[s]--
	}
	if b.top[s] < 0 {
		return -1
	}
	return b.head[s][b.top[s]]
}

// leaders appends up to k of side s's free cells to out, greatest key first.
func (b *buckets) leaders(s uint8, k int, out []int32) []int32 {
	if b.best(s) < 0 {
		return out
	}
	for slot := b.top[s]; slot >= 0 && len(out) < k; slot-- {
		for v := b.head[s][slot]; v >= 0 && len(out) < k; v = b.next[v] {
			out = append(out, v)
		}
	}
	return out
}
