package ingress

import (
	"errors"
	"io"
	"net"

	"nfcompass/internal/netpkt"
	"nfcompass/internal/traffic"
)

// udpMaxFrame bounds one datagram payload — a jumbo Ethernet frame.
const udpMaxFrame = 9216

// UDPSource receives Ethernet frames as UDP datagram payloads — the
// socket counterpart of trafficgen's -udp emitter, so another process (or
// machine) can drive the dataplane without shared memory. One datagram
// carries exactly one frame; datagrams longer than 9216 bytes are
// truncated by the read.
type UDPSource struct {
	conn  net.PacketConn
	arena *netpkt.Arena
}

// NewUDPSource binds addr (e.g. "127.0.0.1:9000", ":9000"). A nil arena
// uses the netpkt default arena for frame buffers. Where the platform
// supports it the socket is bound with SO_REUSEPORT, so Split can later
// stand up a multi-socket reader pool on the same address; on other
// platforms the bind is plain and Split degrades to a single reader.
func NewUDPSource(addr string, arena *netpkt.Arena) (*UDPSource, error) {
	conn, err := listenUDPReusePort(addr)
	if err != nil {
		return nil, err
	}
	return &UDPSource{conn: conn, arena: arena}, nil
}

// Split implements SplittableSource: n sockets bound to the same address
// via SO_REUSEPORT, the kernel's receive-side scaling for sockets — it
// hashes each datagram's 4-tuple to one member of the reuseport group, so
// every sender (flow) lands on exactly one reader and per-flow order is
// that socket's receive order. The original socket is reader 0. On
// platforms without reuseport (or when n <= 1) the source returns itself
// unsplit and the pump falls back to one reader.
func (s *UDPSource) Split(n int) ([]Source, error) {
	if n <= 1 || !reusePortSupported {
		return []Source{s}, nil
	}
	subs := []Source{s}
	for len(subs) < n {
		conn, err := listenUDPReusePort(s.conn.LocalAddr().String())
		if err != nil {
			for _, d := range subs[1:] {
				d.Close()
			}
			return nil, err
		}
		subs = append(subs, &UDPSource{conn: conn, arena: s.arena})
	}
	return subs, nil
}

// LocalAddr reports the bound address (useful with port 0).
func (s *UDPSource) LocalAddr() net.Addr { return s.conn.LocalAddr() }

// Next implements Source: one datagram becomes one packet. Close from any
// goroutine unblocks a pending read with io.EOF.
func (s *UDPSource) Next() (*netpkt.Packet, error) {
	var p *netpkt.Packet
	if s.arena != nil {
		p = s.arena.GetPacket(udpMaxFrame)
	} else {
		p = netpkt.GetPacket(udpMaxFrame)
	}
	n, _, err := s.conn.ReadFrom(p.Data)
	if err != nil {
		netpkt.PutPacket(p)
		if errors.Is(err, net.ErrClosed) {
			return nil, io.EOF
		}
		return nil, err
	}
	p.Data = p.Data[:n]
	_ = p.Parse() // best effort; non-IP frames keep offsets unset
	p.FlowID = traffic.FlowHash(p)
	return p, nil
}

// Close implements Source.
func (s *UDPSource) Close() error { return s.conn.Close() }
