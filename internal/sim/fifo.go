package sim

// fifo is a simple amortized-O(1) queue used by the synchronization
// primitives. The zero value is an empty queue.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() (T, bool) {
	var zero T
	if q.head >= len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero // release reference for GC
	q.head++
	// An emptied queue starts over at index 0, so a queue that never holds
	// many items at once never grows; otherwise compact once the dead prefix
	// dominates, keeping amortized O(1).
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = zero
		}
		q.items = q.items[:n]
		q.head = 0
	}
	return v, true
}

func (q *fifo[T]) peek() (T, bool) {
	var zero T
	if q.head >= len(q.items) {
		return zero, false
	}
	return q.items[q.head], true
}
