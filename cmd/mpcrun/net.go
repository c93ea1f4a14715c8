package main

// TCP-transport plumbing: with -transport=tcp, mpcrun spawns worker
// subprocesses (re-executions of itself in the hidden -net-worker
// mode), reads each worker's bound address from its stdout, and dials
// an mpcnet transport over them. Conforming transports are observably
// identical, so the run's output and (L, r, C) are bit-for-bit those of
// -transport=local; only the physical delivery path changes.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"time"

	"mpcquery/internal/mpcnet"
)

// runNetWorker is the -net-worker main: listen, print the bound
// address (the driver parses it), serve one driver connection, exit.
func runNetWorker(addr string) int {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcrun: worker:", err)
		return 1
	}
	fmt.Println(lis.Addr().String())
	if err := mpcnet.ServeOne(lis); err != nil {
		fmt.Fprintln(os.Stderr, "mpcrun: worker:", err)
		return 1
	}
	return 0
}

// spawnTCPTransport starts the worker subprocesses and dials them. The
// returned cleanup closes the transport (BYE makes workers exit
// cleanly) and reaps the processes.
func spawnTCPTransport(p, workers int) (*mpcnet.Transport, func(), error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var cmds []*exec.Cmd
	kill := func() {
		for _, cmd := range cmds {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	}
	addrs := make([]string, workers)
	for i := range addrs {
		cmd := exec.Command(exe, "-net-worker", "-listen", "127.0.0.1:0")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			kill()
			return nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			kill()
			return nil, nil, err
		}
		cmds = append(cmds, cmd)
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			kill()
			return nil, nil, fmt.Errorf("worker %d reported no address: %v", i, sc.Err())
		}
		addrs[i] = sc.Text()
	}
	tr, err := mpcnet.Dial(p, addrs, mpcnet.Options{WriteTimeout: 30 * time.Second})
	if err != nil {
		kill()
		return nil, nil, err
	}
	cleanup := func() {
		_ = tr.Close()
		for _, cmd := range cmds {
			_ = cmd.Wait()
		}
	}
	return tr, cleanup, nil
}
