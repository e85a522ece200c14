// Command kvcli is a one-shot client for kvserve. It speaks RESP over
// TCP or a Unix socket, sends one command, and prints the reply; INFO
// replies (the server's simulated statistics) are pretty-printed. Load
// comes from kvbench.
//
//	kvcli -sock /tmp/addrkv.sock PING
//	kvcli -sock /tmp/addrkv.sock SET foo bar
//	kvcli -sock /tmp/addrkv.sock RESETSTATS
//	kvcli -sock /tmp/addrkv.sock INFO
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"addrkv/internal/resp"
)

func main() {
	var (
		sock = flag.String("sock", "", "Unix socket path")
		addr = flag.String("addr", "", "TCP address")
		raw  = flag.Bool("raw", false, "print INFO payloads unprocessed instead of pretty-printed")
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
