package archive

// Tests for the prepare step in front of every read: equivalent
// spellings of one request must normalize to the same cache key and the
// same cursor scope, so they share cache entries and cursor tokens.

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/tsdb"
)

// mustPrepare runs the prepare step every read entry point runs.
func mustPrepare(t testing.TB, s *Service, kind readKind, req QueryRequest) *prepared {
	t.Helper()
	p, err := s.prepare(kind, req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRequestSpellingsShareKeyAndScope: for every window tier and read
// kind, `auto`, the explicit tier it picks, an empty resolution (when
// the tier is raw), and an empty or explicit `mean` aggregate all build
// one cache key and one cursor scope; so do the same HTTP parameters in
// any order. Different tiers never share either.
func TestRequestSpellingsShareKeyAndScope(t *testing.T) {
	s, _, _ := diskArchive(t, t.TempDir(), diskOpts(), 3)
	e := simclock.Epoch
	tierKey := map[string]string{}
	for _, to := range []time.Time{e.Add(24 * time.Hour), e.Add(48 * time.Hour), e.Add(60 * 24 * time.Hour), {}} {
		base := QueryRequest{Dataset: tsdb.DatasetPrice, From: e, To: to, Limit: 7, Resolution: "auto"}
		tier, err := s.EffectiveResolution(base)
		if err != nil {
			t.Fatal(err)
		}
		resolutions := []string{"auto", tier}
		if tier == "raw" {
			resolutions = append(resolutions, "")
		}
		for _, kind := range []readKind{kindQuery, kindPage, kindCursor} {
			var wantKey string
			var wantScope uint64
			for i, res := range resolutions {
				for j, agg := range []string{"", "mean"} {
					req := base
					req.Resolution, req.Agg = res, agg
					p := mustPrepare(t, s, kind, req)
					key, scope := cacheKey(p), cursorScope(p)
					if i == 0 && j == 0 {
						wantKey, wantScope = key, scope
						continue
					}
					if key != wantKey || scope != wantScope {
						t.Errorf("to=%v kind=%s resolution=%q agg=%q: key/scope differ from resolution=auto", to, kindNames[kind], res, agg)
					}
				}
			}
			if kind == kindQuery {
				// Keys and scopes embed the window, so compare tiers on one.
				req := base
				req.To = time.Time{}
				req.Resolution = tier
				p := mustPrepare(t, s, kind, req)
				tierKey[tier] = fmt.Sprint(cacheKey(p), cursorScope(p))
			}
		}
	}
	if len(tierKey) != 3 || tierKey["raw"] == tierKey["1h"] || tierKey["1h"] == tierKey["1d"] {
		t.Fatalf("tiers must key apart, got %d distinct tiers: %q", len(tierKey), tierKey)
	}

	// HTTP parameter order is not part of the request.
	params := []string{"dataset=price", "from=2022-01-01T00:00:00Z", "to=2022-01-03T00:00:00Z",
		"resolution=auto", "agg=mean", "limit=7", "cursor="}
	parse := func(ps []string) QueryRequest {
		req, err := parseQueryRequest(httptest.NewRequest("GET", "/api/v1/query?"+strings.Join(ps, "&"), nil))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	want := mustPrepare(t, s, kindCursor, parse(params))
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		ps := append([]string(nil), params...)
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		got := mustPrepare(t, s, kindCursor, parse(ps))
		if cacheKey(got) != cacheKey(want) || cursorScope(got) != cursorScope(want) {
			t.Fatalf("parameter order %v changed the key or scope", ps)
		}
	}
}

// TestAutoCursorResumesExplicitWalk: a token minted by an `auto` walk
// resumes the equivalent explicit-tier walk. Alternating the two
// spellings page by page reproduces the unpaginated explicit-tier
// stream exactly.
func TestAutoCursorResumesExplicitWalk(t *testing.T) {
	s, _, _ := diskArchive(t, t.TempDir(), diskOpts(), 3)
	e := simclock.Epoch
	explicit := QueryRequest{Dataset: tsdb.DatasetPrice, From: e, To: e.Add(48 * time.Hour), Resolution: "1h", Agg: "mean", Limit: 7}
	auto := explicit
	auto.Resolution, auto.Agg = "auto", ""
	if tier, err := s.EffectiveResolution(auto); err != nil || tier != "1h" {
		t.Fatalf("auto over 48h = (%q, %v), want 1h", tier, err)
	}
	full, err := s.Query(explicit)
	if err != nil {
		t.Fatal(err)
	}
	want := flatten(full)
	if len(want) <= 2*explicit.Limit {
		t.Fatalf("1h stream has %d points; need several pages", len(want))
	}

	var got []flatPoint
	cursor := ""
	for page := 0; ; page++ {
		req := auto
		if page%2 == 1 {
			req = explicit
		}
		req.Cursor = cursor
		p, err := s.QueryCursor(req)
		if err != nil {
			t.Fatalf("page %d (resolution=%q): %v", page, req.Resolution, err)
		}
		got = append(got, flatten(p.Series)...)
		if cursor = p.NextCursor; cursor == "" {
			break
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alternating walk delivered %d points, want the %d of the unpaginated 1h stream", len(got), len(want))
	}
}
