package obs

import (
	"fmt"
	"io"
	"sync"
)

// ProgressSink renders a live one-line-per-commit view of a run from the
// span stream: virtual clock, round, merge/outcome counts and cumulative
// traffic. Point it at stderr so byte-diffed stdout summaries stay
// untouched.
type ProgressSink struct {
	mu      sync.Mutex
	w       io.Writer
	flights int64
	down    int64
	up      int64
}

// NewProgressSink writes progress lines to w.
func NewProgressSink(w io.Writer) *ProgressSink { return &ProgressSink{w: w} }

// Span implements SpanSink: flight spans accumulate, commit-level spans
// each print one line.
func (p *ProgressSink) Span(s Span) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch s.Kind {
	case KindFlight:
		p.flights++
		p.down += s.DownBytes
		p.up += s.UpBytes
	case KindCommit:
		fmt.Fprintf(p.w, "[t=%9.1fs] commit r=%d merged=%d failed=%d late=%d reused=%d dropped=%d flights=%d down=%s up=%s\n",
			s.Time, s.Round, s.Merged, s.Failed, s.Late, s.Reused, s.Dropped,
			p.flights, fmtBytes(p.down), fmtBytes(p.up))
	case KindEdgeCommit:
		fmt.Fprintf(p.w, "[t=%9.1fs] edge=%d commit r=%d merged=%d flights=%d\n",
			s.Time, s.Edge, s.Round, s.Merged, p.flights)
	case KindGlobalMerge:
		fmt.Fprintf(p.w, "[t=%9.1fs] global r=%d merged=%d flights=%d down=%s up=%s\n",
			s.Time, s.Round, s.Merged, p.flights, fmtBytes(p.down), fmtBytes(p.up))
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
