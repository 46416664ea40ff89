//go:build amd64 && !purego

package tensor

import (
	"testing"
	"unsafe"
)

// TestPageSafe pins the guard of the AVX depthwise kernels' plain edge
// loads: a slice that starts on a page, or whose over-read would reach
// the next page, is not safe.
func TestPageSafe(t *testing.T) {
	buf := make([]float64, 3*512)
	i := 0
	for uintptr(unsafe.Pointer(&buf[i]))%4096 != 0 {
		i++
	}
	i += 512 // a page start with a page on either side inside buf
	for _, c := range []struct {
		lo, hi, after int
		want          bool
	}{
		{i, i + 16, 4, false},         // starts on the page
		{i + 1, i + 16, 4, true},      // one element of the page before it
		{i - 16, i, 4, false},         // ends on the page
		{i - 16, i - 4, 4, true},      // four elements of the page after it
		{i - 16, i - 3, 4, false},     // three
		{i - 16, i - 2, 2, true},      // two, with two to read
		{i + 1, i + 1 + 512, 4, true}, // a page long, off its boundaries
	} {
		if got := pageSafe(buf[c.lo:c.hi], c.after); got != c.want {
			t.Errorf("pageSafe(buf[%d:%d] around a page at %d, %d) = %v, want %v", c.lo, c.hi, i, c.after, got, c.want)
		}
	}
}
