// Package hilbert provides the Hilbert curve linearization of the
// sharded-index space partitioner (internal/shard), which cuts the
// curve into contiguous ranges, one per shard. The benchmark's
// calibration loop (bench/micro.go) times the same walk to tell a slow
// box from a slow change. The R-tree's bulk loader does not use it:
// STR is the library's one packer.
package hilbert

// D converts (x, y) cell coordinates on a 2^order × 2^order grid to
// the distance along the Hilbert curve (the classic rotate-and-walk
// formulation).
func D(x, y uint32, order uint) uint64 {
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s /= 2 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}
