// Package errflow exercises the errflow analyzer: an error produced
// after receiver mutation must reach a rollback on every pre-ack
// failure path.
package errflow

import "wal"

// tree stands in for the R-tree: a fallible structure the front-ends
// apply mutations to.
type tree struct{}

func (t *tree) Apply(id uint64) error { return nil }

// Index is the PR 8 shape: object table + WAL.
type Index struct {
	log     *wal.Log
	objects map[uint64]uint64
}

func (x *Index) logAppend(typ wal.Type, ops []wal.Op) error {
	if x.log == nil {
		return nil
	}
	return x.log.Append(typ, ops)
}

// Insert is PR 8's bug verbatim: the object table keeps the move when
// the WAL append fails, so the in-memory index diverges from what
// recovery replays.
func (x *Index) Insert(id uint64) error {
	x.objects[id] = id
	if err := x.log.Append(wal.TypeInsert, nil); err != nil { // want `Insert mutates receiver state before Append but the failure path returns without a rollback`
		return err
	}
	return nil
}

// Update hands the helper's error straight to the caller: there is no
// failure branch to roll back in.
func (x *Index) Update(id uint64) error {
	prev := x.objects[id]
	x.objects[id] = prev + 1
	return x.logAppend(wal.TypeUpdate, nil) // want `Update returns the error of logAppend directly after mutating receiver state`
}

// Delete drops the append error on the floor after mutating.
func (x *Index) Delete(id uint64) error {
	delete(x.objects, id)
	x.log.Append(wal.TypeDelete, nil) // want `Delete discards the error of Append after mutating receiver state`
	return nil
}

// UpdateBatch is the PR 8 fix shape: the failure branch restores the
// previous value before propagating. Not flagged.
func (x *Index) UpdateBatch(ids []uint64) error {
	for _, id := range ids {
		prev, had := x.objects[id]
		x.objects[id] = prev + 1
		if err := x.log.Append(wal.TypeUpdate, nil); err != nil {
			if had {
				x.objects[id] = prev
			} else {
				delete(x.objects, id)
			}
			return err
		}
	}
	return nil
}

// Logged is a second carrier exercising ack ordering and the
// compare-and-restore shape on structure applies.
type Logged struct {
	log     *wal.Log
	tree    *tree
	objects map[uint64]uint64
}

// Insert restores the previous value when the tree apply fails: PR 2's
// compare-and-restore shape. Not flagged.
func (l *Logged) Insert(id uint64) error {
	prev, had := l.objects[id]
	l.objects[id] = id
	if err := l.tree.Apply(id); err != nil {
		if had {
			l.objects[id] = prev
		} else {
			delete(l.objects, id)
		}
		return err
	}
	return nil
}

// Delete loses the table entry even when the tree apply fails.
func (l *Logged) Delete(id uint64) error {
	delete(l.objects, id)
	if err := l.tree.Apply(id); err != nil { // want `Delete mutates receiver state before Apply but the failure path returns without a rollback`
		return err
	}
	return nil
}

// Update logs before mutating: the merge failure is post-ack — the op
// is already durable, so no rollback is owed. Not flagged.
func (l *Logged) Update(id uint64) error {
	if err := l.log.Append(wal.TypeUpdate, nil); err != nil {
		return err
	}
	l.objects[id] = id
	return l.merge()
}

func (l *Logged) merge() error {
	l.objects = map[uint64]uint64{}
	return nil
}

// UpdateBatch delegates to absorb, which both mutates and logs: the
// helper inherits the contract interprocedurally.
func (l *Logged) UpdateBatch(ids []uint64) error {
	return l.absorb(ids)
}

func (l *Logged) absorb(ids []uint64) error {
	for _, id := range ids {
		l.objects[id] = id
	}
	if err := l.log.Append(wal.TypeUpdate, nil); err != nil { // want `absorb mutates receiver state before Append but the failure path returns without a rollback`
		return err
	}
	return nil
}

// Plain carries no WAL: out of scope even though it mutates and can
// fail. Not flagged.
type Plain struct {
	t *tree
	n map[uint64]uint64
}

func (p *Plain) Insert(id uint64) error {
	p.n[id] = id
	return p.t.Apply(id)
}

// engine is the shape the front-ends took when they became wrappers:
// the WAL-carrying struct is embedded, its exported mutation methods
// are one-line calls into a shared pipeline, and the rollback contract
// follows the delegation into it.
type engine struct {
	log     *wal.Log
	tree    *tree
	objects map[uint64]uint64
}

// Wrapper promotes engine's Insert/Update/Delete.
type Wrapper struct {
	*engine
}

func (e *engine) Insert(id uint64) error { return e.mutate(id, id) }
func (e *engine) Update(id uint64) error { return e.mutate(id, id+1) }

// put is the table transition; calling it on the receiver is the
// mutation.
func (e *engine) put(id, v uint64) { e.objects[id] = v }

// mutate reserves, applies, logs and — on a log failure — undoes. Not
// flagged.
func (e *engine) mutate(id, v uint64) error {
	prev := e.objects[id]
	e.put(id, v)
	if err := e.tree.Apply(id); err != nil {
		e.put(id, prev)
		return err
	}
	if err := e.log.Append(wal.TypeUpdate, nil); err != nil {
		e.put(id, prev)
		return err
	}
	return nil
}

// leaky is the same pipeline with the undo stage deleted: the table
// keeps the move the caller was told failed.
type leaky struct {
	log     *wal.Log
	tree    *tree
	objects map[uint64]uint64
}

func (l *leaky) Insert(id uint64) error { return l.mutate(id, id) }

func (l *leaky) put(id, v uint64) { l.objects[id] = v }

func (l *leaky) mutate(id, v uint64) error {
	prev := l.objects[id]
	l.put(id, v)
	if err := l.tree.Apply(id); err != nil {
		l.put(id, prev)
		return err
	}
	if err := l.log.Append(wal.TypeUpdate, nil); err != nil { // want `mutate mutates receiver state before Append but the failure path returns without a rollback`
		return err
	}
	return nil
}

// stack is a log-less target: a tree and its state, with no WAL handle,
// table or gate of its own.
type stack struct {
	objects map[uint64]uint64
}

func (s *stack) apply(id, v uint64) { s.objects[id] = v }

// Router is the sharded shape: the per-shard WAL handles and the one
// object table live on the router, and its targets are log-less stacks.
// A batch is routed into per-shard groups; each group is applied to its
// stack, recorded in the table and logged as one record in its shard's
// log, and a record that cannot be written takes its group back.
type Router struct {
	logs   []*wal.Log
	table  map[uint64]uint64
	stacks []*stack
}

func (r *Router) route(ids []uint64) [][]uint64 {
	groups := make([][]uint64, len(r.stacks))
	for _, id := range ids {
		s := int(id) % len(r.stacks)
		groups[s] = append(groups[s], id)
	}
	return groups
}

// UpdateBatch hands each shard's group to the phase method; the contract
// follows the delegation.
func (r *Router) UpdateBatch(ids []uint64) error {
	var first error
	for s, group := range r.route(ids) {
		if err := r.stays(s, group); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stays applies, logs and — per record — undoes. Not flagged.
func (r *Router) stays(s int, group []uint64) error {
	prev := make([]uint64, len(group))
	for i, id := range group {
		prev[i] = r.table[id]
		r.stacks[s].apply(id, id)
		r.table[id] = id
	}
	if err := r.logs[s].Append(wal.TypeUpdate, nil); err != nil {
		for i, id := range group {
			r.stacks[s].apply(id, prev[i])
			r.table[id] = prev[i]
		}
		return err
	}
	return nil
}

// LeakyRouter is the same router with the per-record undo deleted: the
// stack and the table keep a group whose record was never written.
type LeakyRouter struct {
	logs   []*wal.Log
	table  map[uint64]uint64
	stacks []*stack
}

func (r *LeakyRouter) UpdateBatch(ids []uint64) error {
	return r.stays(0, ids)
}

func (r *LeakyRouter) stays(s int, group []uint64) error {
	for _, id := range group {
		r.stacks[s].apply(id, id)
		r.table[id] = id
	}
	if err := r.logs[s].Append(wal.TypeUpdate, nil); err != nil { // want `stays mutates receiver state before Append but the failure path returns without a rollback`
		return err
	}
	return nil
}
