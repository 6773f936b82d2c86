package ingress

import (
	"fmt"
	"io"
	"os"
	"time"

	"nfcompass/internal/netpkt"
	"nfcompass/internal/traffic"
)

// PcapConfig tunes capture replay.
type PcapConfig struct {
	// Loops is the total number of replay passes over the capture
	// (<= 1 means one pass). Loop mode turns a finite trace into a
	// sustained load for soak runs: passes after the first salt FlowID, so
	// each pass presents fresh flows (the way sustained real traffic
	// recycles ephemeral ports) instead of re-touching the same ones. Wire
	// bytes are untouched — only the synthetic flow identity changes — so
	// per-flow state in the pipeline still behaves, while conntrack sees
	// genuine churn.
	Loops int
	// PacePPS, when positive, releases packets at a fixed rate. Without
	// it the source releases as fast as the pipeline pulls.
	PacePPS float64
	// Arena, when set, supplies record buffers from a recycling pool
	// instead of the garbage collector — the pump's per-queue arenas end
	// up here via round-robin (see Pump).
	Arena *netpkt.Arena
}

// PcapSource replays a classic pcap capture as a Source. Construct with
// NewPcapSource or PcapFileSource.
type PcapSource struct {
	open func() (io.ReadCloser, error)
	cfg  PcapConfig

	rc   io.ReadCloser
	pr   *traffic.PcapReader
	pass int
	// stride is the pass increment at end of capture (0 or 1 when the
	// source is whole; N for a reader produced by Split(N), which replays
	// passes start, start+N, start+2N, … — the round-robin pass partition).
	stride int

	count  uint64    // packets released
	start  time.Time // wall anchor for pacing, set on first Next
	closed bool
}

// NewPcapSource replays whatever open returns; open is called once per
// pass, so loop mode re-reads the capture from the start each time.
func NewPcapSource(open func() (io.ReadCloser, error), cfg PcapConfig) (*PcapSource, error) {
	s := &PcapSource{open: open, cfg: cfg}
	if err := s.reopen(); err != nil {
		return nil, err
	}
	return s, nil
}

// PcapFileSource replays a capture file.
func PcapFileSource(path string, cfg PcapConfig) (*PcapSource, error) {
	return NewPcapSource(func() (io.ReadCloser, error) { return os.Open(path) }, cfg)
}

func (s *PcapSource) reopen() error {
	rc, err := s.open()
	if err != nil {
		return fmt.Errorf("ingress: pcap pass %d: %w", s.pass, err)
	}
	pr, err := traffic.NewPcapReader(rc)
	if err != nil {
		rc.Close()
		return fmt.Errorf("ingress: pcap pass %d: %w", s.pass, err)
	}
	if s.cfg.Arena != nil {
		pr.SetAlloc(s.cfg.Arena.GetPacket)
	}
	s.rc, s.pr = rc, pr
	return nil
}

// Next implements Source: the next record of the current pass, rolling into
// the next pass (or io.EOF) at end of capture, paced if configured.
func (s *PcapSource) Next() (*netpkt.Packet, error) {
	if s.closed {
		return nil, io.EOF
	}
	for {
		p, err := s.pr.Next()
		if err == io.EOF {
			s.rc.Close()
			step := s.stride
			if step < 1 {
				step = 1
			}
			s.pass += step
			if s.pass >= s.cfg.Loops || s.cfg.Loops <= 1 {
				return nil, io.EOF
			}
			if err := s.reopen(); err != nil {
				return nil, err
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		s.pace()
		p.FlowID = traffic.FlowHash(p)
		if s.pass > 0 {
			// splitmix64 of the pass number decorrelates the salt from
			// the hash without touching wire bytes.
			z := uint64(s.pass) + 0x9e3779b97f4a7c15
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			p.FlowID ^= z ^ (z >> 31)
		}
		s.count++
		return p, nil
	}
}

// pace sleeps until the packet's release time at PacePPS.
func (s *PcapSource) pace() {
	if s.cfg.PacePPS <= 0 {
		return
	}
	if s.start.IsZero() {
		s.start = time.Now()
	}
	targetNs := int64(float64(s.count) / s.cfg.PacePPS * 1e9)
	if d := time.Duration(targetNs) - time.Since(s.start); d > 0 {
		time.Sleep(d)
	}
}

// Split implements SplittableSource: loop passes are dealt round-robin to
// up to n readers (reader i replays passes i, i+n, i+2n, …). Per-pass
// rekeying makes every pass an independent set of flows, so no flow spans
// two readers and per-flow order is each reader's source order — exactly
// the contract the parallel pump needs. A single-pass source returns itself
// unsplit. On success the parent is retired: its open reader is
// closed and further Next calls return io.EOF.
func (s *PcapSource) Split(n int) ([]Source, error) {
	if n <= 1 || s.cfg.Loops <= 1 || s.closed {
		return []Source{s}, nil
	}
	if n > s.cfg.Loops {
		n = s.cfg.Loops
	}
	subs := make([]Source, n)
	for i := range subs {
		cfg := s.cfg
		if cfg.PacePPS > 0 {
			cfg.PacePPS /= float64(n)
		}
		sub := &PcapSource{open: s.open, cfg: cfg, pass: i, stride: n}
		if err := sub.reopen(); err != nil {
			for _, d := range subs[:i] {
				d.Close()
			}
			return nil, err
		}
		subs[i] = sub
	}
	s.closed = true
	if s.rc != nil {
		s.rc.Close()
	}
	return subs, nil
}

// Close implements Source.
func (s *PcapSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.rc != nil {
		return s.rc.Close()
	}
	return nil
}
