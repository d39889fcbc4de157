package burtree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// TestUnusablePageSizesAreRefused: a page too small for a node fanout of
// 4 under the node header — 200 bytes — is refused with an error by every way an index comes to be:
// the three opens, a recovery that starts empty, and a snapshot of one
// stack (blob) or of two (manifest) that names one (outside input, so
// ErrBadSnapshot). The
// smallest usable size opens everywhere.
func TestUnusablePageSizesAreRefused(t *testing.T) {
	base := func(s Strategy, ps int) Options { return Options{Strategy: s, PageSize: ps} }
	// Empty indexes hold no pages, so a saved one re-encoded under any
	// page size is a well-formed snapshot of that size.
	blob := func(t *testing.T, s Strategy, ps int) []byte {
		x, err := Open(base(s, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return reencode(t, buf.Bytes(), func(s *savedIndex) { s.Options.PageSize = ps })
	}
	manifest := func(t *testing.T, s Strategy, ps int) []byte {
		x, err := OpenSharded(base(s, 0), ShardOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return reencode(t, buf.Bytes(), func(s *savedIndex) { s.Options.PageSize = ps })
	}
	ways := []struct {
		name     string
		snapshot bool
		open     func(t *testing.T, s Strategy, ps int) (io.Closer, error)
	}{
		{"Open", false, func(t *testing.T, s Strategy, ps int) (io.Closer, error) { return Open(base(s, ps)) }},
		{"OpenConcurrent", false, func(t *testing.T, s Strategy, ps int) (io.Closer, error) { return OpenConcurrent(base(s, ps)) }},
		{"OpenSharded", false, func(t *testing.T, s Strategy, ps int) (io.Closer, error) {
			return OpenSharded(base(s, ps), ShardOptions{Shards: 4})
		}},
		{"RecoverEmptyDir", false, func(t *testing.T, s Strategy, ps int) (io.Closer, error) {
			o := base(s, ps)
			o.Durability = Durability{Mode: DurabilityBatch, Dir: t.TempDir()}
			return Recover(o)
		}},
		{"LoadBlob", true, func(t *testing.T, s Strategy, ps int) (io.Closer, error) {
			return Load(bytes.NewReader(blob(t, s, ps)))
		}},
		{"LoadManifest", true, func(t *testing.T, s Strategy, ps int) (io.Closer, error) {
			return Load(bytes.NewReader(manifest(t, s, ps)))
		}},
		{"LoadShardedManifest", true, func(t *testing.T, s Strategy, ps int) (io.Closer, error) {
			return LoadSharded(bytes.NewReader(manifest(t, s, ps)))
		}},
	}
	const least = 200
	for _, s := range []Strategy{TopDown, GeneralizedBottomUp} {
		for _, ps := range []int{100, 150, 199, 200, 207, 208} {
			for _, w := range ways {
				t.Run(fmt.Sprintf("%v/%d/%s", s, ps, w.name), func(t *testing.T) {
					x, err := w.open(t, s, ps)
					switch {
					case ps >= least && err != nil:
						t.Fatalf("a usable page refused: %v", err)
					case ps >= least:
						if err := x.Close(); err != nil {
							t.Fatal(err)
						}
					case err == nil:
						x.Close()
						t.Fatalf("page size %d accepted, below the minimum of %d", ps, least)
					case w.snapshot && !errors.Is(err, ErrBadSnapshot):
						t.Fatalf("error %v does not wrap ErrBadSnapshot", err)
					}
				})
			}
		}
	}
}
