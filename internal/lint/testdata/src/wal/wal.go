// Package wal is a fixture stand-in for burtree/internal/wal: the Log
// type with the methods the closecheck analyzer keys on.
package wal

// Type tags a logged record.
type Type int

// Record types.
const (
	TypeInsert Type = iota
	TypeUpdate
	TypeDelete
)

// Op is one logged mutation.
type Op struct {
	ID   uint64
	X, Y float64
}

// Log is the write-ahead log handle.
type Log struct{}

// Append logs ops durably.
func (l *Log) Append(typ Type, ops []Op) error { return nil }

// AppendAsync logs ops with group commit.
func (l *Log) AppendAsync(typ Type, ops []Op) error { return nil }

// Sync flushes the log.
func (l *Log) Sync() error { return nil }

// Close closes the log.
func (l *Log) Close() error { return nil }
