// Command kvcli is a client and micro-loadgen for kvserve. It speaks
// RESP over TCP or a Unix socket, supports one-shot commands, YCSB
// workload replay with pipelining (the paper's Figure 1 setup), and
// reads back the server's simulated statistics.
//
//	kvcli -sock /tmp/addrkv.sock PING
//	kvcli -sock /tmp/addrkv.sock SET foo bar
//	kvcli -sock /tmp/addrkv.sock -load -keys 100000 -vsize 64
//	kvcli -sock /tmp/addrkv.sock -bench -keys 100000 -ops 200000 -dist zipf -pipeline 64
//	kvcli -sock /tmp/addrkv.sock INFO
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"addrkv/internal/resp"
	"addrkv/internal/ycsb"
)

func main() {
	var (
		sock     = flag.String("sock", "", "Unix socket path")
		addr     = flag.String("addr", "", "TCP address")
		load     = flag.Bool("load", false, "load -keys YCSB records")
		bench    = flag.Bool("bench", false, "run a YCSB GET/SET benchmark")
		keys     = flag.Int("keys", 100_000, "key-space size for -load/-bench")
		ops      = flag.Int("ops", 100_000, "operations for -bench")
		vsize    = flag.Int("vsize", 64, "value size")
		dist     = flag.String("dist", "zipf", "zipf|latest|uniform")
		pipeline = flag.Int("pipeline", 64, "pipelined requests in flight")
		seed     = flag.Uint64("seed", 42, "workload seed")
		raw      = flag.Bool("raw", false, "print INFO payloads unprocessed instead of pretty-printed")
	)
	flag.Parse()

	if (*sock == "") == (*addr == "") {
		fmt.Fprintln(os.Stderr, "kvcli: exactly one of -sock or -addr is required")
		os.Exit(2)
	}
	network, target := "unix", *sock
	if *addr != "" {
		network, target = "tcp", *addr
	}
	c, err := resp.Dial(network, target)
	must(err)
	defer c.Close()

	switch {
	case *load:
		doLoad(c.R, c.W, *keys, *vsize, *pipeline)
	case *bench:
		doBench(c, *keys, *ops, *vsize, *dist, *pipeline, *seed, *raw)
	default:
		args := flag.Args()
		if len(args) == 0 {
			fmt.Fprintln(os.Stderr, "kvcli: no command; try PING, INFO, GET <k>, SET <k> <v>")
			os.Exit(2)
		}
		reply, err := c.Do(args...)
		must(err)
		if b, ok := reply.([]byte); ok && !*raw && strings.EqualFold(args[0], "INFO") {
			fmt.Print(prettyInfo(string(b)))
			return
		}
		printReply(reply)
	}
}

func must(err error) {
	if err != nil {
		log.Fatalf("kvcli: %v", err)
	}
}

func printReply(v any) {
	switch x := v.(type) {
	case nil:
		fmt.Println("(nil)")
	case []byte:
		fmt.Println(string(x))
	case []any:
		for i, e := range x {
			fmt.Printf("%d) ", i+1)
			printReply(e)
		}
	case error:
		if hint := redirectHint(x.Error()); hint != "" {
			fmt.Println("(error)", x, hint)
		} else {
			fmt.Println("(error)", x)
		}
	default:
		fmt.Println(x)
	}
}

// doLoad SETs keys 0..n-1 with pipelining.
func doLoad(r *resp.Reader, w *resp.Writer, n, vsize, pipe int) {
	start := time.Now()
	inFlight := 0
	drain := func() {
		for ; inFlight > 0; inFlight-- {
			if _, err := r.ReadReply(); err != nil {
				log.Fatalf("kvcli: load reply: %v", err)
			}
		}
	}
	for id := 0; id < n; id++ {
		must(w.WriteCommand([]byte("SET"), ycsb.KeyName(uint64(id)), ycsb.Value(uint64(id), 0, vsize)))
		inFlight++
		if inFlight >= pipe {
			must(w.Flush())
			drain()
		}
	}
	must(w.Flush())
	drain()
	fmt.Printf("loaded %d keys in %v\n", n, time.Since(start).Round(time.Millisecond))
}

// doBench resets server stats, replays a YCSB stream, then prints both
// wall-clock throughput and the server's simulated statistics.
func doBench(c *resp.Client, keys, ops, vsize int, dist string, pipe int, seed uint64, raw bool) {
	d, err := ycsb.ParseDistribution(dist)
	must(err)
	_, err = c.Do("RESETSTATS")
	must(err)
	r, w := c.R, c.W

	cfg := ycsb.Config{Keys: keys, ValueSize: vsize, Dist: d, Seed: seed}.WithPaperSetFraction()
	g := ycsb.NewGenerator(cfg)

	start := time.Now()
	inFlight := 0
	drain := func() {
		for ; inFlight > 0; inFlight-- {
			if _, err := r.ReadReply(); err != nil {
				log.Fatalf("kvcli: bench reply: %v", err)
			}
		}
	}
	for i := 0; i < ops; i++ {
		op := g.Next()
		k := ycsb.KeyName(op.KeyID)
		if op.Type == ycsb.Set {
			must(w.WriteCommand([]byte("SET"), k, ycsb.Value(op.KeyID, 1, vsize)))
		} else {
			must(w.WriteCommand([]byte("GET"), k))
		}
		inFlight++
		if inFlight >= pipe {
			must(w.Flush())
			drain()
		}
	}
	must(w.Flush())
	drain()
	wall := time.Since(start)
	fmt.Printf("%d ops in %v (%.0f op/s wall-clock)\n",
		ops, wall.Round(time.Millisecond), float64(ops)/wall.Seconds())

	info, err := c.Do("INFO")
	must(err)
	fmt.Println("--- simulated statistics ---")
	if b, ok := info.([]byte); ok && !raw {
		fmt.Print(prettyInfo(string(b)))
		return
	}
	printReply(info)
}
