// The worker side of the TCP transport.
//
// A worker owns the destination shard {dst : dst mod nworkers ==
// workerIdx}. Compute (the per-server round closures) stays in the
// driver process — closures do not serialize — so the worker's job is
// the data plane: it receives its shard's fragments over TCP, validates
// and holds them for the round, and at the FLUSH barrier streams them
// back in arrival order followed by END. Validation reads a frame's
// header and checks its fixed-width value section by its length alone:
// the worker never reads a value. The driver lands the echoed fragments,
// so every delivered byte has physically crossed the wire twice while
// delivery order and metering stay exactly canonical.
package mpcnet

import (
	"bufio"
	"fmt"
	"net"
)

// ServeConn speaks the worker protocol on one established driver
// connection until BYE or error. It returns nil on a clean BYE.
func ServeConn(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)

	payload, err := readFrame(br, nil)
	if err != nil {
		return fmt.Errorf("mpcnet: worker handshake: %w", err)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return err
	}
	if h.version != protoVersion {
		return fmt.Errorf("mpcnet: worker speaks version %d, driver %d", protoVersion, h.version)
	}
	if err := writeFrame(bw, appendUints(nil, kindHelloAck, protoVersion)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// Raw DATA payloads of the round in flight, in arrival order. Each
	// is read into its own buffer, since it is held until FLUSH.
	var held [][]byte
	for {
		payload, err := readFrame(br, nil)
		if err != nil {
			return fmt.Errorf("mpcnet: worker read: %w", err)
		}
		switch payload[0] {
		case kindData:
			// Validate on receipt so a corrupt frame is rejected at the
			// worker, not discovered by the driver on echo. Validation
			// materializes nothing: the worker only echoes the bytes.
			dst, err := validateData(payload)
			if err != nil {
				return err
			}
			if dst >= h.p || dst%h.nworkers != h.workerIdx {
				return fmt.Errorf("mpcnet: worker %d/%d received fragment for server %d",
					h.workerIdx, h.nworkers, dst)
			}
			held = append(held, payload)
		case kindFlush:
			var seq uint64
			if err := decodeUints(payload, kindFlush, &seq); err != nil {
				return err
			}
			for _, p := range held {
				if err := writeFrame(bw, p); err != nil {
					return err
				}
			}
			if err := writeFrame(bw, appendUints(nil, kindEnd, seq, uint64(len(held)))); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			// Drop the round's payloads: the slice is reused, the bytes
			// it pointed at are not kept alive into the next round.
			clear(held)
			held = held[:0]
		case kindBye:
			return nil
		default:
			return fmt.Errorf("mpcnet: worker received frame kind %d", payload[0])
		}
	}
}

// ServeOne accepts exactly one driver connection on lis, serves it to
// completion, and closes both. One driver connection is a worker's
// whole life, so this is the worker main loop for both the loopback
// backend and mpcrun's worker subprocesses.
func ServeOne(lis net.Listener) error {
	defer lis.Close()
	conn, err := lis.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	return ServeConn(conn)
}
