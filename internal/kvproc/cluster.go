package kvproc

import (
	"fmt"
	"net"
	"strconv"
	"strings"
)

// Cluster is one booted N-node kvserve cluster on loopback. Every node
// has a metrics listener, so any of them can be scraped.
type Cluster struct {
	Addrs   []string // client addresses, by node index
	Metrics []string // each node's -metrics-addr
	Procs   []*Proc
}

// StartCluster boots n cluster nodes of bin on reserved loopback ports,
// each with extra appended to its arguments, and returns once every
// node answers PING. Ports are reserved by listen-close-reuse, which
// another process can race: a node that loses it exits with "address
// already in use" before it ever answers, so a boot in which a node
// exited early is retried once on fresh ports.
func StartCluster(bin string, n int, extra ...string) (*Cluster, error) {
	cl, exitedEarly, err := startCluster(bin, n, extra)
	if exitedEarly {
		cl, _, err = startCluster(bin, n, extra)
	}
	return cl, err
}

func startCluster(bin string, n int, extra []string) (*Cluster, bool, error) {
	ports, err := reservePorts(3 * n)
	if err != nil {
		return nil, false, err
	}
	cl := &Cluster{Addrs: ports[:n], Metrics: ports[2*n:]}
	spec := make([]string, n)
	for i := range spec {
		spec[i] = ports[i] + "@" + ports[n+i] // client address @ bus address
	}
	err = cl.boot(bin, strings.Join(spec, ","), extra)
	if err == nil {
		return cl, false, nil
	}
	exitedEarly := false
	for _, p := range cl.Procs {
		select {
		case <-p.exited:
			exitedEarly = true
		default:
		}
	}
	cl.Stop()
	return nil, exitedEarly, fmt.Errorf("boot %d-node cluster: %w", n, err)
}

// boot launches every node, then waits for each to answer.
func (cl *Cluster) boot(bin, spec string, extra []string) error {
	for i := range cl.Addrs {
		p, err := launch(nil, bin, append([]string{
			"-addr", cl.Addrs[i],
			"-metrics-addr", cl.Metrics[i],
			"-cluster-nodes", spec,
			"-cluster-self", strconv.Itoa(i),
		}, extra...)...)
		if err != nil {
			return err
		}
		cl.Procs = append(cl.Procs, p)
	}
	for _, p := range cl.Procs {
		if err := p.waitReady(); err != nil {
			return err
		}
	}
	return nil
}

// Stop shuts every node down, all at once.
func (cl *Cluster) Stop() { stop(cl.Procs) }

// reservePorts returns n distinct free loopback addresses. All n are
// held open until the last is chosen, so no two are the same; they are
// then released for the nodes to bind.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}
