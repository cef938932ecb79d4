package archive

// Keyset-cursor tokens. A cursor names a fixed position in the query's
// point stream (see the page engine in paging.go) — the canonical key,
// timestamp and sequence count of the last point delivered — in the
// style of the paper backend's own pagination (Timestream-style next
// tokens).
//
// The token is opaque and URL-safe: a base64url encoding of a version
// byte, a 64-bit scope hash of the prepared request's filter, window and
// tier, the last-delivered timestamp, the sequence count, and the
// canonical series key. The sequence count says how many points at
// exactly that timestamp have been delivered: the store accepts
// equal-timestamp appends, so a bare timestamp cannot address a page
// boundary inside such a run, and the run's undelivered remainder would
// be silently skipped on resume. The scope hash pins a token to the
// query that minted it — replaying a cursor against a different filter
// or window would silently skip or duplicate data, so it is rejected
// instead (tokens "expire" when the query changes). Clients must treat
// the token as a black box.

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/tsdb"
)

// ErrBadCursor is wrapped by every cursor-token rejection: malformed
// encodings and tokens minted by a different filter or window. The HTTP
// layer maps it to a 400 with the token-specific message.
var ErrBadCursor = errors.New("archive: invalid cursor")

const cursorVersion = 1

// cursorScope hashes the request fields a cursor token must match: the
// series filter, the time window and the effective tier (FNV-1a 64, with
// '|' separators so adjacent fields cannot alias). Limit is deliberately
// excluded — a client may change page sizes mid-walk without losing its
// position. Taking a prepared request means the tier is scoped after
// normalization: a token minted at one tier addresses that tier's point
// stream and must not resume a walk at another (the streams differ in
// both density and values), while an `auto` token interoperates with the
// equivalent explicit request.
func cursorScope(p *prepared) uint64 {
	req := &p.req
	h := fnv.New64a()
	var b [8]byte
	mix := func(s string) {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{'|'})
	}
	mixInt := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, _ = h.Write(b[:])
	}
	mix(req.Dataset)
	mix(req.Type)
	mix(req.Region)
	mix(req.AZ)
	mixInt(req.From.UnixNano())
	mixInt(req.To.UnixNano())
	mix(req.Resolution)
	mix(req.Agg)
	return h.Sum64()
}

// encodeCursor mints the token for a position: the page ended with the
// seq-th point at time at of series key, under the given request scope.
func encodeCursor(scope uint64, key string, at time.Time, seq uint32) string {
	buf := make([]byte, 1+8+8+4, 1+8+8+4+len(key))
	buf[0] = cursorVersion
	binary.LittleEndian.PutUint64(buf[1:9], scope)
	binary.LittleEndian.PutUint64(buf[9:17], uint64(at.UnixNano()))
	binary.LittleEndian.PutUint32(buf[17:21], seq)
	buf = append(buf, key...)
	return base64.RawURLEncoding.EncodeToString(buf)
}

// cursorPos is a position in the point stream: every point of the
// series with canonical key key before time at, plus the first seq
// points at exactly at, has been delivered.
type cursorPos struct {
	key string
	at  time.Time
	seq int
}

// decodeCursor validates and unpacks a token against the scope of the
// request presenting it. Every failure wraps ErrBadCursor.
func decodeCursor(token string, scope uint64) (cursorPos, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil || len(raw) < 1+8+8+4 {
		return cursorPos{}, fmt.Errorf("%w: malformed token", ErrBadCursor)
	}
	if raw[0] != cursorVersion {
		return cursorPos{}, fmt.Errorf("%w: unknown token version %d", ErrBadCursor, raw[0])
	}
	if got := binary.LittleEndian.Uint64(raw[1:9]); got != scope {
		return cursorPos{}, fmt.Errorf("%w: token was issued for a different filter or window (cursors expire when the query changes)", ErrBadCursor)
	}
	key := string(raw[21:])
	if _, err := tsdb.ParseSeriesKey(key); err != nil {
		return cursorPos{}, fmt.Errorf("%w: malformed series key", ErrBadCursor)
	}
	return cursorPos{
		key: key,
		at:  time.Unix(0, int64(binary.LittleEndian.Uint64(raw[9:17]))).UTC(),
		seq: int(binary.LittleEndian.Uint32(raw[17:21])),
	}, nil
}

// CursorPage is one page of a query's point stream located by cursor.
type CursorPage struct {
	// Series holds the page's points grouped by series, canonical key
	// order, ascending time within each series — the same order as the
	// unpaginated response, restricted to the page.
	Series []SeriesResult `json:"series"`
	// NextCursor resumes the walk after this page's last point; empty
	// when the page exhausted the stream as counted at request time.
	NextCursor string `json:"nextCursor"`
	// Limit echoes the request (0 = everything from the cursor on).
	Limit int `json:"limit"`
}

// QueryCursor returns the page of the query's point stream that starts
// after req.Cursor's position (or at the stream's start for an empty
// cursor), holding at most req.Limit points (0 = all remaining). The
// page is cached under the cursor token with the same generation guard
// as every read, so a repeated page request hits while any write to a
// depended-on shard invalidates. Unlike an offset page, the result is
// stable under live appends: the resume position is fixed, so concurrent
// collection can only add points after it, never shift it.
func (s *Service) QueryCursor(req QueryRequest) (*CursorPage, error) {
	p, err := s.prepare(kindCursor, req)
	if err != nil {
		return nil, err
	}
	if req.Offset != 0 {
		return nil, fmt.Errorf("archive: cursor and offset are mutually exclusive")
	}
	return s.queryCursor(p)
}

// queryCursor answers a request prepared as kindCursor, first checking
// its token against the prepared scope, window and retention cut.
func (s *Service) queryCursor(p *prepared) (*CursorPage, error) {
	scope := cursorScope(p)
	var pos *cursorPos
	if p.req.Cursor != "" {
		c, err := decodeCursor(p.req.Cursor, scope)
		if err != nil {
			return nil, err
		}
		// Genuine tokens are minted from in-window points, so a position
		// outside [from, to] is tampering (the scope hash is integrity
		// against accidents, not a MAC): reject it, because the seek
		// primitives resume from the position's timestamp and would
		// otherwise serve the cursor series' pre-window points.
		if c.at.Before(p.from) || c.at.After(p.to) {
			return nil, fmt.Errorf("%w: token position lies outside the query window", ErrBadCursor)
		}
		// A raw-tier token can point into history that retention has since
		// dropped (rolled up, then aged out). Resuming there would
		// silently skip from the cut to the first surviving point —
		// exactly the hole this walk was promised not to have — so the
		// token expires instead; the client restarts at the current head
		// or re-queries a rollup tier, which retention never drops.
		if p.plan.res == "raw" {
			if sk, err := tsdb.ParseSeriesKey(c.key); err == nil {
				if cut, ok := p.db.RetentionCut(sk.Dataset); ok && c.at.Before(cut) {
					return nil, fmt.Errorf("%w: token position precedes dataset %q's raw retention horizon (raw points there have been rolled up and dropped); restart the walk or query resolution=1h/1d", ErrBadCursor, sk.Dataset)
				}
			}
		}
		pos = &c
	}
	return cachedRead(s, p, func(keys []tsdb.SeriesKey) (*CursorPage, int, error) {
		pg, err := s.readPage(p, keys, pos)
		if err != nil {
			return nil, 0, err
		}
		cp := &CursorPage{Series: pg.series, Limit: p.req.Limit}
		if pg.end < pg.total && pg.points > 0 {
			// The next position is (at, n): n counts the points at exactly
			// at already delivered, so a boundary inside an equal-timestamp
			// run resumes at the run's remainder instead of skipping it. n
			// is the trailing equal-timestamp run of the page's last slice
			// — plus the incoming cursor's own count when the page never
			// advanced past the position it resumed at (same series, same
			// timestamp, whole slice inside the run).
			last := pg.series[len(pg.series)-1]
			key, at := last.Key.String(), last.Points[len(last.Points)-1].At
			n := 0
			for i := len(last.Points) - 1; i >= 0 && last.Points[i].At.Equal(at); i-- {
				n++
			}
			if n == len(last.Points) && pos != nil && pos.key == key && pos.at.Equal(at) {
				n += pos.seq
			}
			cp.NextCursor = encodeCursor(scope, key, at, uint32(n))
		}
		return cp, pg.points, nil
	})
}
