package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/trace"
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

// Client is one synchronous smrd protocol connection: a window=1 view
// over the pipelined AsyncClient, each request waiting for its
// response. Not safe for concurrent use; open one client per goroutine
// (or use AsyncClient).
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

// Write issues a logical write of ext on the named volume.
func (c *Client) Write(vol string, ext geom.Extent) error {
	_, err := c.roundTrip(request{Op: OpWrite, Volume: vol, Extent: ext})
	return err
}

// Read issues a logical read of ext and returns the number of physical
// fragments it resolved to — the paper's read-seek cost signal.
func (c *Client) Read(vol string, ext geom.Extent) (int, error) {
	body, err := c.roundTrip(request{Op: OpRead, Volume: vol, Extent: ext})
	if err != nil {
		return 0, err
	}
	if len(body) != 4 {
		return 0, fmt.Errorf("smrd: read response body %d bytes, want 4", len(body))
	}
	return int(binary.LittleEndian.Uint32(body)), nil
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

// Snapshot forces a journal checkpoint on the volume.
func (c *Client) Snapshot(vol string) error {
	_, err := c.roundTrip(request{Op: OpSnapshot, Volume: vol})
	return err
}

// Step sends one trace record as the matching read/write request and
// returns a read's fragment count (0 for writes). Errors surface as
// they are: a broken connection stays broken (smrload's driver owns
// reconnection), and overload shedding is the caller's to retry.
func (c *Client) Step(vol string, rec trace.Record) (int, error) {
	switch rec.Kind {
	case disk.Write:
		return 0, c.Write(vol, rec.Extent)
	case disk.Read:
		return c.Read(vol, rec.Extent)
	default:
		return 0, fmt.Errorf("smrd: unsupported record kind %v", rec.Kind)
	}
}
