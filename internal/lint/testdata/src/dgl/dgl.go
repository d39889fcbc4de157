// Package dgl is a fixture stand-in for burtree/internal/dgl: same
// shape (Manager, Txn, GranuleID, modes), no behavior. The analyzers
// match collaborator packages by path tail, so this local copy lets
// fixtures exercise lockorder without importing the
// real module.
package dgl

import "time"

// GranuleID names one lockable granule.
type GranuleID uint64

// Mode is a lock mode.
type Mode int

// Lock modes, matching the real lattice's names.
const (
	S Mode = iota
	X
	IS
	IX
)

// Txn is one lock owner.
type Txn struct{ id uint64 }

// Manager is the lock table.
type Manager struct{}

// Begin starts a new lock owner.
func (m *Manager) Begin() *Txn { return &Txn{} }

// Acquire takes g in the given mode on behalf of t.
func (m *Manager) Acquire(t *Txn, g GranuleID, mode Mode, timeout time.Duration) error { return nil }

// Req is one granule of a lock set.
type Req struct {
	G    GranuleID
	Mode Mode
}

// TryAcquireAll takes the whole set or nothing, and never waits.
func (m *Manager) TryAcquireAll(t *Txn, reqs []Req) bool { return true }

// Release drops one granule.
func (m *Manager) Release(t *Txn, g GranuleID) {}

// ReleaseAll drops everything t holds.
func (m *Manager) ReleaseAll(t *Txn) {}
