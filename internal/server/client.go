package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
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

// NeedsFailover reports whether err means "this node can no longer
// serve": a broken connection or a not-primary rejection. Everything
// else — overload, corruption, bad requests, a request that fails to
// encode — is the caller's to handle or report. Set and smrload's load
// driver reconnect on exactly this predicate.
func NeedsFailover(err error) bool {
	var ce *connError
	if errors.As(err, &ce) {
		return true
	}
	var se *StatusError
	return errors.As(err, &se) && se.Status == StatusNotPrimary
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
	return DialContext(context.Background(), addr)
}

// DialContext is Dial with caller-controlled cancellation: the
// connection attempt, its retries and the retry sleeps all end when ctx
// does. Replica sets use it to bound how long probing a dead node may
// take.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	ac, err := dialAsync(ctx, addr, 1)
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

// Verify asks the server to audit the volume's journal directory —
// every frame CRC, every segment Merkle root, the seal chain and the
// checkpoint linkage — and returns the audit. Corruption comes back as
// a StatusCorrupt StatusError.
func (c *Client) Verify(vol string) (journal.Audit, error) {
	body, err := c.roundTrip(request{Op: OpVerify, Volume: vol})
	if err != nil {
		return journal.Audit{}, err
	}
	var a journal.Audit
	if err := json.Unmarshal(body, &a); err != nil {
		return journal.Audit{}, fmt.Errorf("smrd: audit decode: %w", err)
	}
	return a, nil
}

// Prove fetches the Merkle inclusion proof for the seq'th journal
// record (1-based, current generation) of the volume and verifies the
// audit path locally before returning it — so a proof the server
// mis-built never reaches the caller marked good.
func (c *Client) Prove(vol string, seq int64) (journal.Proof, error) {
	body, err := c.roundTrip(request{Op: OpProof, Volume: vol, Seq: seq})
	if err != nil {
		return journal.Proof{}, err
	}
	var p journal.Proof
	if err := json.Unmarshal(body, &p); err != nil {
		return journal.Proof{}, fmt.Errorf("smrd: proof decode: %w", err)
	}
	if err := p.Verify(); err != nil {
		return journal.Proof{}, fmt.Errorf("smrd: server proof does not verify: %w", err)
	}
	return p, nil
}

// Step sends one trace record as the matching read/write request and
// returns a read's fragment count (0 for writes). Errors surface as
// they are: a broken connection stays broken (Set and smrload's driver
// own reconnection), and overload shedding is the caller's to retry.
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

// Ship asks the node for the next replication chunk of the volume's
// journal past (gen, off). It returns the responding node's fencing
// epoch alongside the chunk.
func (c *Client) Ship(vol string, gen uint64, off int64) (uint64, journal.ShipChunk, error) {
	body, err := c.roundTrip(request{Op: OpShip, Volume: vol, Gen: gen, Off: off})
	if err != nil {
		return 0, journal.ShipChunk{}, err
	}
	return parseShipBody(body)
}

// Tail is Ship with long-poll semantics: the server holds the request
// until sealed bytes exist past (gen, off) — force-sealing a lagging
// tail — or its bounded wait expires (returning a ShipNone chunk).
func (c *Client) Tail(vol string, gen uint64, off int64) (uint64, journal.ShipChunk, error) {
	body, err := c.roundTrip(request{Op: OpTail, Volume: vol, Gen: gen, Off: off})
	if err != nil {
		return 0, journal.ShipChunk{}, err
	}
	return parseShipBody(body)
}

// Ack reports this follower's verified, applied journal position for the
// volume, so the primary can release gated writes and track lag.
func (c *Client) Ack(vol string, gen uint64, off int64) error {
	_, err := c.roundTrip(request{Op: OpAck, Volume: vol, Gen: gen, Off: off})
	return err
}

// Role returns the node's replication role, fencing epoch and
// per-volume journal positions.
func (c *Client) Role() (RoleInfo, error) {
	body, err := c.roundTrip(request{Op: OpRole})
	if err != nil {
		return RoleInfo{}, err
	}
	var info RoleInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return RoleInfo{}, fmt.Errorf("smrd: role decode: %w", err)
	}
	return info, nil
}

// Promote asks a follower to promote itself to primary — verified
// recovery of every replicated journal, epoch bump, serving enabled —
// and returns its post-promotion role.
func (c *Client) Promote() (RoleInfo, error) {
	body, err := c.roundTrip(request{Op: OpPromote})
	if err != nil {
		return RoleInfo{}, err
	}
	var info RoleInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return RoleInfo{}, fmt.Errorf("smrd: promote decode: %w", err)
	}
	return info, nil
}
