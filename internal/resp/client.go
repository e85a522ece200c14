package resp

import "net"

// Client is one connection to a RESP server. Do is the request-reply
// path every tool outside the server uses for a single command; R and W
// are the same connection's reader and writer, for callers that
// pipeline their own bursts between Do calls.
type Client struct {
	R    *Reader
	W    *Writer
	conn net.Conn
}

// Dial connects to a server on network ("tcp" or "unix") at addr.
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &Client{R: NewReader(conn), W: NewWriter(conn), conn: conn}, nil
}

// Do sends one command and returns its reply decoded as ReadReply
// does. An error reply is a value (of type error) with a nil error:
// err is non-nil only when the connection failed.
func (c *Client) Do(args ...string) (any, error) {
	ba := make([][]byte, len(args))
	for i, a := range args {
		ba[i] = []byte(a)
	}
	if err := c.W.WriteCommand(ba...); err != nil {
		return nil, err
	}
	if err := c.W.Flush(); err != nil {
		return nil, err
	}
	return c.R.ReadReply()
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
