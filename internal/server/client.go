package server

import (
	"encoding/json"
	"errors"
	"fmt"

	"smrseek/internal/core"
)

// StatusError is a non-OK response from the server. Callers distinguish
// backpressure (IsOverloaded) from hard failures by status code.
type StatusError struct {
	Status uint8
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("smrd: %s: %s", StatusName(e.Status), e.Msg)
}

// IsOverloaded reports whether err is the server's backpressure signal —
// the request was shed, not executed, and may be retried.
func IsOverloaded(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Status == StatusOverloaded
}

// connError marks a transport-level failure (send or receive on a
// broken connection), as opposed to a server response. A connection
// that fails stays failed: the Client does not redial.
type connError struct{ err error }

func (e *connError) Error() string { return e.err.Error() }
func (e *connError) Unwrap() error { return e.err }

// IsConnLost reports whether err is a transport failure: the
// connection broke, so no response is coming. Everything else —
// overload, a crashed journal, bad requests, a request that fails to encode —
// is the caller's to handle or report. smrload's load driver redials on
// exactly this predicate.
func IsConnLost(err error) bool {
	var ce *connError
	return errors.As(err, &ce)
}

// Client is one synchronous smrd protocol connection for Stat: a
// window=1 view over the pipelined AsyncClient, each request waiting for
// its response. Reads and writes go through AsyncClient.SubmitStep. Not
// safe for concurrent use; open one client per goroutine.
type Client struct {
	ac   *AsyncClient
	done chan *Call
}

// Dial connects at window 1, retrying refused connections briefly (the
// daemon may still be binding its listener).
func Dial(addr string) (*Client, error) {
	ac, err := DialAsync(addr, 1)
	if err != nil {
		return nil, err
	}
	return &Client{ac: ac, done: make(chan *Call, 1)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.ac.Close() }

// roundTrip sends one request and blocks for its response status + body.
// Transport failures come back as *connError; server rejections as
// *StatusError.
func (c *Client) roundTrip(req request) ([]byte, error) {
	if _, err := c.ac.submit(req, c.done); err != nil {
		return nil, err
	}
	return (<-c.done).Result()
}

// Stat returns the volume's live statistics. Stats.Config is zeroed by
// the server (layer pointers do not cross the wire).
func (c *Client) Stat(vol string) (core.Stats, error) {
	body, err := c.roundTrip(request{Op: OpStat, Volume: vol})
	if err != nil {
		return core.Stats{}, err
	}
	var st core.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return core.Stats{}, fmt.Errorf("smrd: stat decode: %w", err)
	}
	return st, nil
}
