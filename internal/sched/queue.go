package sched

import "container/heap"

// queue is the event queue both tiers schedule on: a min-heap ordered by
// (virtual time, seq), so simultaneous entries resolve in issue order,
// deterministically. The engine queues flights, the hierarchy edge
// commits in transit.
type queue[T any] []entry[T]

type entry[T any] struct {
	t   float64
	seq int64
	v   T
}

func (q queue[T]) Len() int { return len(q) }
func (q queue[T]) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q queue[T]) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *queue[T]) Push(x any)   { *q = append(*q, x.(entry[T])) }
func (q *queue[T]) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = entry[T]{}
	*q = old[:n-1]
	return e
}

// push queues v at virtual time t with tie-break seq.
func (q *queue[T]) push(t float64, seq int64, v T) { heap.Push(q, entry[T]{t, seq, v}) }

// pop removes the earliest entry and returns its time and value.
func (q *queue[T]) pop() (float64, T) {
	e := heap.Pop(q).(entry[T])
	return e.t, e.v
}
