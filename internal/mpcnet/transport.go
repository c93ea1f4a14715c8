// Package mpcnet is the TCP backend of the mpc transport seam: the
// same rounds, fragments, and (L, r, C) metering as the in-process
// transport, with delivery physically crossing real sockets. See codec.go
// for the wire format and worker.go for the data-plane protocol. The
// backend is deterministic by construction — per-connection FIFO order
// plus dst-major canonical write order reproduce the local transport's
// delivery order bit for bit, which the cross-backend differential
// matrix in internal/testkit pins.
package mpcnet

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// DefaultMaxFrameTuples caps the tuples per DATA frame: large fragments
// are chunked so one skewed destination cannot produce an oversized
// frame or starve the write buffer.
const DefaultMaxFrameTuples = 8192

// Options configures the driver side of the TCP transport.
type Options struct {
	// Workers is the number of worker endpoints NewLoopback spawns
	// (ignored by Dial, which gets one worker per address). 0 means
	// min(p, 4).
	Workers int
	// WriteTimeout, when positive, bounds each socket write so a stuck
	// worker fails the round instead of wedging the driver.
	WriteTimeout time.Duration
	// MaxFrameTuples caps tuples per DATA frame. 0 means
	// DefaultMaxFrameTuples.
	MaxFrameTuples int
}

func (o Options) maxTuples() int64 {
	if o.MaxFrameTuples <= 0 {
		return DefaultMaxFrameTuples
	}
	return int64(o.MaxFrameTuples)
}

// Transport ships rounds to mpcnet workers over TCP. It implements
// mpc.Transport; attach it with (*mpc.Cluster).SetTransport. A
// Transport serves one cluster at a time (Deliver is not reentrant).
type Transport struct {
	p     int
	opts  Options
	conns []*workerConn
	seq   uint64
}

// workerConn is the driver's end of one worker connection. The worker
// owns destinations {dst : dst mod len(conns) == idx}; connections have
// disjoint shards, so shard deliveries run concurrently without ever
// landing into one destination from two goroutines.
type workerConn struct {
	idx int
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
}

// Dial connects to one worker per address, handshakes, and returns a
// transport for clusters of size p. The worker at addrs[i] owns
// destination shard i mod len(addrs).
func Dial(p int, addrs []string, opts Options) (*Transport, error) {
	if p < 1 {
		return nil, fmt.Errorf("mpcnet: cluster size %d", p)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("mpcnet: no worker addresses")
	}
	t := &Transport{p: p, opts: opts}
	for i, addr := range addrs {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("mpcnet: worker %d: %w", i, err)
		}
		cn := &workerConn{
			idx: i,
			nc:  nc,
			br:  bufio.NewReaderSize(nc, 1<<16),
			bw:  bufio.NewWriterSize(nc, 1<<16),
		}
		t.conns = append(t.conns, cn)
		if err := handshake(cn, p, len(addrs)); err != nil {
			t.Close()
			return nil, fmt.Errorf("mpcnet: worker %d: %w", i, err)
		}
	}
	return t, nil
}

// NewLoopback spawns opts.Workers in-process workers on loopback
// listeners and dials them — same wire protocol and code path as
// separate worker processes, no subprocess management. This is the
// backend the differential test matrix runs against.
func NewLoopback(p int, opts Options) (*Transport, error) {
	n := opts.Workers
	if n <= 0 {
		n = p
		if n > 4 {
			n = 4
		}
	}
	addrs := make([]string, n)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("mpcnet: loopback worker %d: %w", i, err)
		}
		addrs[i] = lis.Addr().String()
		go ServeOne(lis) //nolint:errcheck // a worker error surfaces as a driver I/O error
	}
	return Dial(p, addrs, opts)
}

// handshake announces the topology to one worker and verifies the
// protocol version on its HELLOACK.
func handshake(cn *workerConn, p, nworkers int) error {
	h := hello{version: protoVersion, p: p, nworkers: nworkers, workerIdx: cn.idx}
	if err := writeFrame(cn.bw, appendHello(nil, h)); err != nil {
		return err
	}
	if err := cn.bw.Flush(); err != nil {
		return err
	}
	payload, err := readFrame(cn.br)
	if err != nil {
		return err
	}
	v, err := decodeHelloAck(payload)
	if err != nil {
		return err
	}
	if v != protoVersion {
		return fmt.Errorf("worker speaks version %d, driver %d", v, protoVersion)
	}
	return nil
}

// Deliver ships the round: each worker connection concurrently streams
// its shard's fragments in canonical dst-major order, posts the FLUSH
// barrier, then lands the echoed fragments. TCP's per-connection FIFO
// plus the worker's arrival-order echo make the landing order per
// destination exactly the local transport's.
func (t *Transport) Deliver(v *mpc.RoundView) error {
	if v.P() != t.p {
		return fmt.Errorf("mpcnet: cluster of %d servers on transport dialed for %d", v.P(), t.p)
	}
	seq := t.seq
	t.seq++
	errs := make(chan error, len(t.conns))
	for _, cn := range t.conns {
		go func(cn *workerConn) {
			errs <- cn.deliverShard(v, seq, len(t.conns), t.opts)
		}(cn)
	}
	var firstErr error
	for range t.conns {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// deliverShard runs one connection's half of a round barrier.
func (cn *workerConn) deliverShard(v *mpc.RoundView, seq uint64, nworkers int, opts Options) error {
	maxTuples := opts.maxTuples()
	var scratch []byte
	sent := 0
	for dst := cn.idx; dst < v.P(); dst += nworkers {
		for src := 0; src < v.P(); src++ {
			for i := 0; i < v.Streams(src); i++ {
				sv := v.Stream(src, i)
				flat, n := sv.Fragment(dst)
				if n == 0 {
					continue
				}
				arity := int64(len(sv.Attrs()))
				for off := int64(0); off < n; {
					k := maxTuples
					if k > n-off {
						k = n - off
					}
					var chunk []relation.Value
					if arity > 0 {
						chunk = flat[off*arity : (off+k)*arity]
					}
					scratch = appendData(scratch[:0], dst, sv.Name(), sv.Attrs(), chunk, k)
					if err := cn.write(scratch, opts); err != nil {
						return err
					}
					sent++
					off += k
				}
			}
		}
	}
	if err := cn.write(appendFlush(scratch[:0], seq), opts); err != nil {
		return err
	}
	if err := cn.flush(opts); err != nil {
		return err
	}

	landed := 0
	for {
		payload, err := readFrame(cn.br)
		if err != nil {
			return fmt.Errorf("mpcnet: worker %d echo: %w", cn.idx, err)
		}
		switch payload[0] {
		case kindData:
			df, err := decodeData(payload)
			if err != nil {
				return err
			}
			if df.dst%nworkers != cn.idx {
				return fmt.Errorf("mpcnet: worker %d echoed fragment for server %d", cn.idx, df.dst)
			}
			if err := v.Land(df.dst, df.name, df.attrs, df.flat, df.tuples); err != nil {
				return err
			}
			landed++
		case kindEnd:
			gotSeq, frames, err := decodeEnd(payload)
			if err != nil {
				return err
			}
			if gotSeq != seq {
				return fmt.Errorf("mpcnet: worker %d finished round %d during round %d", cn.idx, gotSeq, seq)
			}
			if frames != sent || landed != sent {
				return fmt.Errorf("mpcnet: worker %d: sent %d frames, echoed %d, landed %d",
					cn.idx, sent, frames, landed)
			}
			return nil
		default:
			return fmt.Errorf("mpcnet: worker %d echoed frame kind %d", cn.idx, payload[0])
		}
	}
}

func (cn *workerConn) write(payload []byte, opts Options) error {
	if opts.WriteTimeout > 0 {
		if err := cn.nc.SetWriteDeadline(time.Now().Add(opts.WriteTimeout)); err != nil {
			return err
		}
	}
	return writeFrame(cn.bw, payload)
}

func (cn *workerConn) flush(opts Options) error {
	if opts.WriteTimeout > 0 {
		if err := cn.nc.SetWriteDeadline(time.Now().Add(opts.WriteTimeout)); err != nil {
			return err
		}
	}
	if err := cn.bw.Flush(); err != nil {
		return err
	}
	return cn.nc.SetWriteDeadline(time.Time{})
}

// Close sends BYE to every worker and closes the connections. Workers
// exit cleanly on BYE; Close after a failed round just drops the
// sockets.
func (t *Transport) Close() error {
	var firstErr error
	for _, cn := range t.conns {
		if cn == nil || cn.nc == nil {
			continue
		}
		if err := writeFrame(cn.bw, appendBye(nil)); err == nil {
			_ = cn.bw.Flush()
		}
		if err := cn.nc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.conns = nil
	return firstErr
}
