// Package closecheck exercises the closecheck analyzer: silently
// discarded Close/Sync errors are flagged; handled, returned,
// deferred, and explicitly discarded ones are not.
package closecheck

import (
	"os"

	"wal"
)

func silentDiscards(f *os.File, l *wal.Log) {
	f.Close() // want `Close error silently discarded`
	f.Sync()  // want `Sync error silently discarded`
	l.Close() // want `Close error silently discarded`
	l.Sync()  // want `Sync error silently discarded`
}

func handled(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

func deferred(f *os.File) {
	defer f.Close()
}

func explicit(f *os.File) {
	_ = f.Close()
}

// quiet has a Close that returns nothing; there is no error to drop.
type quiet struct{}

func (quiet) Close() {}

func noError(q quiet) {
	q.Close()
}
