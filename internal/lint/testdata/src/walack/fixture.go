// Package walack exercises the walack analyzer: exported mutation
// methods on WAL-carrying types must reach the log before acking.
package walack

import (
	"errors"

	"wal"
)

var errUnknown = errors.New("unknown object")

// Index carries a WAL, so its mutation methods are checked.
type Index struct {
	log     *wal.Log
	objects map[uint64]struct{}
}

// logAppend is the logging helper; the durability-off case lives here.
func (x *Index) logAppend(typ wal.Type, ops []wal.Op) error {
	if x.log == nil {
		return nil
	}
	return x.log.Append(typ, ops)
}

func (x *Index) rebalance() error { return nil }

// Insert acks without ever reaching the WAL — the bug walack exists
// for: a crash forgets an insert the caller was told is durable.
func (x *Index) Insert(id uint64) error {
	x.objects[id] = struct{}{}
	return nil // want `Insert acknowledges success without reaching the WAL`
}

// Update logs, then acks. Not flagged.
func (x *Index) Update(id uint64) error {
	if _, ok := x.objects[id]; !ok {
		return errUnknown
	}
	if err := x.logAppend(wal.TypeUpdate, nil); err != nil {
		return err
	}
	return nil
}

// Delete acks with the log call itself. Not flagged.
func (x *Index) Delete(id uint64) error {
	if _, ok := x.objects[id]; !ok {
		return errUnknown
	}
	delete(x.objects, id)
	return x.logAppend(wal.TypeDelete, nil)
}

// UpdateBatch mutates inside its loop, then tails into a same-package
// helper that never logs.
func (x *Index) UpdateBatch(ids []uint64) error {
	for _, id := range ids {
		x.objects[id] = struct{}{}
	}
	return x.rebalance() // want `UpdateBatch acknowledges success without reaching the WAL`
}

// Batched is a second carrier whose UpdateBatch logs each mutation
// in-loop: the final `return nil` is reached either with zero
// iterations (nothing mutated, nothing to log) or after mutate+log
// pairs. The mutation gate keeps both exempt. Not flagged.
type Batched struct {
	log     *wal.Log
	objects map[uint64]struct{}
}

func (b *Batched) UpdateBatch(ids []uint64) error {
	for _, id := range ids {
		b.objects[id] = struct{}{}
		if err := b.log.Append(wal.TypeUpdate, nil); err != nil {
			return err
		}
	}
	return nil
}

// Sharded logs per shard from inside goroutine closures, like the
// real ShardedIndex batch path; the lexical check sees those calls.
type Sharded struct {
	logs []*wal.Log
}

func (s *Sharded) logTo(shard int, typ wal.Type, ops []wal.Op) error {
	return s.logs[shard].AppendAsync(typ, ops)
}

// Update fans out and logs inside the closures. Not flagged.
func (s *Sharded) Update(id uint64) error {
	done := make(chan error, len(s.logs))
	for i := range s.logs {
		go func(i int) { done <- s.logTo(i, wal.TypeUpdate, nil) }(i)
	}
	for range s.logs {
		if err := <-done; err != nil {
			return err
		}
	}
	return nil
}

// Plain carries no WAL; its mutation methods are out of scope.
type Plain struct {
	n int
}

// Insert on a WAL-less type is not checked. Not flagged.
func (p *Plain) Insert(id uint64) error {
	p.n++
	return nil
}

// engine is the shape the front-ends took when they became wrappers:
// the WAL-carrying struct is embedded, its exported mutation methods
// are one-line calls into a shared pipeline, and the wrapper's methods
// are the promoted ones. The contract follows the delegation.
type engine struct {
	log     *wal.Log
	objects map[uint64]struct{}
}

// Wrapper promotes engine's Insert/Update/Delete; it declares nothing to
// check itself.
type Wrapper struct {
	*engine
}

// The one-liners ack with the pipeline call itself, which logs. Not
// flagged: a path that acks unlogged is reported in the pipeline, where
// the path is.
func (e *engine) Insert(id uint64) error { return e.mutate(id, true) }
func (e *engine) Update(id uint64) error { return e.mutate(id, true) }
func (e *engine) Delete(id uint64) error { return e.mutate(id, false) }

// mutate is the shared pipeline: it mutates and logs, so it inherits the
// contract, and its early success return skips the log.
func (e *engine) mutate(id uint64, present bool) error {
	if present {
		e.objects[id] = struct{}{}
	} else {
		delete(e.objects, id)
	}
	if len(e.objects) == 0 {
		return nil // want `mutate acknowledges success without reaching the WAL`
	}
	return e.log.Append(wal.TypeUpdate, nil)
}

// quiet is the same shape with the log call missing altogether: the
// pipeline is no logging helper, so the wrappers' one-line returns are
// where a mutation is acked unlogged.
type quiet struct {
	log     *wal.Log
	objects map[uint64]struct{}
}

func (q *quiet) Insert(id uint64) error {
	return q.mutate(id, true) // want `Insert acknowledges success without reaching the WAL: the returned helper does not log`
}

func (q *quiet) Delete(id uint64) error {
	return q.mutate(id, false) // want `Delete acknowledges success without reaching the WAL: the returned helper does not log`
}

func (q *quiet) mutate(id uint64, present bool) error {
	if present {
		q.objects[id] = struct{}{}
	} else {
		delete(q.objects, id)
	}
	return nil
}

// stack is a log-less target of the router below: it has state to
// mutate and no WAL handle.
type stack struct {
	objects map[uint64]struct{}
}

func (s *stack) apply(id uint64) { s.objects[id] = struct{}{} }

// Router carries the per-shard logs and the one table; its stacks carry
// neither. Each shard's group is applied to its stack and logged in that
// shard's log by a phase method the batch delegates to.
type Router struct {
	logs   []*wal.Log
	table  map[uint64]struct{}
	stacks []*stack
}

// UpdateBatch acks with whatever the phases return. Not flagged: the
// phases log.
func (r *Router) UpdateBatch(ids []uint64) error {
	for s := range r.stacks {
		if err := r.stays(s, ids); err != nil {
			return err
		}
	}
	return nil
}

// stays mutates the stack and the table, then logs the record. Not
// flagged.
func (r *Router) stays(s int, group []uint64) error {
	for _, id := range group {
		r.stacks[s].apply(id)
		r.table[id] = struct{}{}
	}
	if err := r.logs[s].AppendAsync(wal.TypeUpdate, nil); err != nil {
		return err
	}
	return nil
}

// MuteRouter is the same router whose phase never reaches a log: the
// stacks have none to reach, and the router's own are forgotten.
type MuteRouter struct {
	logs   []*wal.Log
	table  map[uint64]struct{}
	stacks []*stack
}

func (r *MuteRouter) UpdateBatch(ids []uint64) error {
	for s := range r.stacks {
		r.stays(s, ids)
	}
	return nil // want `UpdateBatch acknowledges success without reaching the WAL`
}

func (r *MuteRouter) stays(s int, group []uint64) {
	for _, id := range group {
		r.stacks[s].apply(id)
		r.table[id] = struct{}{}
	}
}
