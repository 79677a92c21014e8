package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The system under test is the real cmd/planserver binary, one process per
// replica, each bound to a random loopback port.

type replica struct {
	cmd  *exec.Cmd
	URL  string // http://host:port
	Peer string // peer RPC address; "" on a single node
	ID   string
	done chan struct{}
}

// serverArgs are the flags every replica gets. The plan cache is sized so
// the plan corpus never evicts, which keeps the cold count a function of
// the operations sent.
var serverArgs = []string{"-addr", "127.0.0.1:0", "-capacity", "65536"}

// startReplicas boots n replicas (a static-membership cluster when n > 1)
// and waits until each answers /v1/readyz with 200.
func startReplicas(bin string, n int) ([]*replica, error) {
	var peerAddrs []string
	if n > 1 {
		for i := 0; i < n; i++ {
			addr, err := freeAddr()
			if err != nil {
				return nil, err
			}
			peerAddrs = append(peerAddrs, addr)
		}
	}
	var members []string
	for i, a := range peerAddrs {
		members = append(members, fmt.Sprintf("n%d=%s", i, a))
	}
	var out []*replica
	for i := 0; i < n; i++ {
		args := append([]string(nil), serverArgs...)
		r := &replica{}
		if n > 1 {
			r.ID, r.Peer = fmt.Sprintf("n%d", i), peerAddrs[i]
			args = append(args, "-node-id", r.ID, "-peers", strings.Join(members, ","))
		}
		if err := r.start(bin, args); err != nil {
			stopReplicas(out)
			return nil, err
		}
		out = append(out, r)
	}
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	for _, r := range out {
		if err := r.waitReady(c); err != nil {
			stopReplicas(out)
			return nil, err
		}
	}
	return out, nil
}

// freeAddr reserves a loopback port for a replica's peer listener.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func (r *replica) start(bin string, args []string) error {
	r.cmd = exec.Command(bin, args...)
	// A replica must not outlive the benchmark, whatever ends it.
	r.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r.cmd.Stdout = io.Discard
	stderr, err := r.cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := r.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", bin, err)
	}
	r.done = make(chan struct{})
	urlc := make(chan string, 1)
	go func() {
		// Scrape the bound address, then keep draining so the server
		// never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				urlc <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		if !sent {
			close(urlc)
		}
		_ = r.cmd.Wait()
		close(r.done)
	}()
	select {
	case u, ok := <-urlc:
		if !ok {
			return fmt.Errorf("planserver exited before listening")
		}
		r.URL = u
		return nil
	case <-time.After(30 * time.Second):
		r.stop()
		return fmt.Errorf("planserver did not report its address")
	}
}

func (r *replica) waitReady(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(r.URL + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready", r.URL)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (r *replica) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", r.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", r.cmd.Process.Pid)
}

// stop terminates the replica and waits for it to exit.
func (r *replica) stop() {
	if r.cmd == nil || r.cmd.Process == nil {
		return
	}
	_ = r.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		_ = r.cmd.Process.Kill()
		<-r.done
	}
}

func stopReplicas(rs []*replica) {
	for _, r := range rs {
		r.stop()
	}
}
