package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// golden.txt holds, for every request of the universe, the digest of the
// daemon's response body with its per-request "cache" and "cluster"
// fields removed. A run's request list depends on its seed and on how
// far it gets in --seconds, so the golden digest of a run is built from
// these per-request digests. Regenerate with -gen-golden only when the
// served plans are meant to change.
//
//go:embed golden.txt
var goldenText string

func loadGolden() (map[string]uint64, error) {
	g := make(map[string]uint64)
	sc := bufio.NewScanner(strings.NewReader(goldenText))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("golden.txt: malformed line %q", line)
		}
		d, err := strconv.ParseUint(line[i+1:], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("golden.txt: %q: %w", line, err)
		}
		g[line[:i]] = d
	}
	if len(g) == 0 {
		return nil, fmt.Errorf("golden.txt is empty")
	}
	return g, nil
}

// digestBody canonicalises a plan response: it drops the per-request
// metadata, re-encodes with sorted keys and hashes the result. It also
// returns the decoded fields for the echo check.
func digestBody(body []byte) (uint64, map[string]json.RawMessage, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return 0, nil, fmt.Errorf("decoding response: %w", err)
	}
	delete(m, "cache")
	delete(m, "cluster")
	canon, err := json.Marshal(m)
	if err != nil {
		return 0, nil, err
	}
	h := fnv.New64a()
	h.Write(canon)
	return h.Sum64(), m, nil
}

// checker verifies the responses one client receives. It is not safe for
// concurrent use: each client owns one.
type checker struct {
	golden map[string]uint64
	// first holds the first verified body of each request id; a later
	// body that is byte-identical needs no second decode.
	first  map[string][]byte
	digest map[string]uint64
}

func newChecker(golden map[string]uint64) *checker {
	return &checker{golden: golden, first: make(map[string][]byte), digest: make(map[string]uint64)}
}

func (c *checker) check(r prepared, status int, body []byte) error {
	id := r.id
	if status != 200 {
		return fmt.Errorf("%s: status %d: %s", id, status, bytes.TrimSpace(body))
	}
	if prev, ok := c.first[id]; ok && bytes.Equal(prev, body) {
		return nil
	}
	d, m, err := digestBody(body)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	want := map[string]string{
		"kernel":   strconv.Quote(r.Kernel),
		"size":     strconv.FormatInt(r.Size, 10),
		"cube_dim": strconv.Itoa(r.Cube),
	}
	for k, v := range want {
		if string(m[k]) != v {
			return fmt.Errorf("%s: response echoes %s=%s", id, k, m[k])
		}
	}
	g, ok := c.golden[id]
	if !ok {
		return fmt.Errorf("%s: no golden digest", id)
	}
	if d != g {
		return fmt.Errorf("%s: body digest %016x, golden %016x", id, d, g)
	}
	if _, ok := c.first[id]; !ok {
		c.first[id] = append([]byte(nil), body...)
		c.digest[id] = d
	}
	return nil
}

// runDigests combines the digests of the distinct requests a run
// answered, in id order, and the golden digests of the same requests.
// Equal values mean every body the run received matched the table.
func runDigests(checkers []*checker) (got, want uint64) {
	all := make(map[string]uint64)
	for _, c := range checkers {
		for id, d := range c.digest {
			all[id] = d
		}
	}
	ids := make([]string, 0, len(all))
	for id := range all {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	hg, hw := fnv.New64a(), fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(hg, "%s %016x\n", id, all[id])
		fmt.Fprintf(hw, "%s %016x\n", id, checkers[0].golden[id])
	}
	return hg.Sum64(), hw.Sum64()
}
