package rowcodec

import (
	"encoding/json"
	"errors"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// TestRunWidth: a digit run of L digits takes the bytes 10^L − 1 needs.
func TestRunWidth(t *testing.T) {
	pow := uint64(1)
	for L := 1; L <= maxRun; L++ {
		pow *= 10
		if need := (bits.Len64(pow-1) + 7) / 8; int(runWidth[L]) != need {
			t.Errorf("runWidth[%d] = %d, want %d", L, runWidth[L], need)
		}
	}
}

// TestDictJSONRoundTrip: a learned dictionary survives the catalog in code
// order, so rows encoded before the save decode after it.
func TestDictJSONRoundTrip(t *testing.T) {
	d := NewDict()
	rows := []string{"1.5,N,TRUCK,lineitem 000000042 v0000", "2.5,R,MAIL,lineitem 000000043 v0001", "3,A,<&> é 12"}
	for _, r := range rows {
		d.Learn([]byte(r))
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Dict
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("%s: %v", data, err)
	}
	again, _ := json.Marshal(&back)
	if string(again) != string(data) {
		t.Fatalf("round trip %s → %s", data, again)
	}
	for _, r := range rows {
		dec, err := Decode(&back, nil, Encode(d, nil, r))
		if err != nil || string(dec) != r {
			t.Errorf("%q through the catalog: %q, %v", r, dec, err)
		}
	}
}

// TestDictRefusesMalformed: a dictionary no build wrote is refused with a
// *DictError naming its column, before any decoder can index into it.
func TestDictRefusesMalformed(t *testing.T) {
	many := make([]string, maxEntries+1)
	for i := range many {
		many[i] = "x" + strings.Repeat("y", i)
	}
	tooMany, _ := json.Marshal([]dictJSON{{Column: 3, Skeletons: many}})
	for _, tc := range []struct {
		json string
		col  int
	}{
		{`[{"column":-1,"skeletons":["N"]}]`, -1},
		{`[{"column":256,"skeletons":["N"]}]`, 256},
		{`[{"column":2,"skeletons":["N"]},{"column":2,"skeletons":["R"]}]`, 2},
		{`[{"column":1,"skeletons":["N","R","N"]}]`, 1},
		{`[{"column":1,"skeletons":["` + strings.Repeat("z", maxSkeleton+1) + `"]}]`, 1},
		{`[{"column":4,"skeletons":["a,b"]}]`, 4},
		{`[{"column":4,"skeletons":["v20"]}]`, 4},
		{`[{"column":4,"skeletons":["v0"]}]`, 4},
		{`[{"column":4,"skeletons":["v05"]}]`, 4},
		{`[{"column":4,"skeletons":["v1234"]}]`, 4},
		{string(tooMany), 3},
	} {
		var d Dict
		err := json.Unmarshal([]byte(tc.json), &d)
		var de *DictError
		if !errors.As(err, &de) || de.Column != tc.col {
			t.Errorf("%.80s: %v, want a *DictError for column %d", tc.json, err, tc.col)
		}
	}
	var d Dict
	if err := json.Unmarshal([]byte(`[{"column":0,"skeletons":["v19 x9",""]},{"column":255,"skeletons":[]}]`), &d); err != nil {
		t.Errorf("a well-formed dictionary: %v", err)
	}
}

// TestEntryMatchIsSkeletonLookup holds lookup's two ways of finding a
// column's entry to each other: matchEntry (a column of at most
// matchEntries entries) accepts a column exactly when its skeleton, built by
// skeletonOf and looked up in the map (a larger column, or a miss), is the
// entry's, ends it at the same byte and writes the same run values.
func TestEntryMatchIsSkeletonLookup(t *testing.T) {
	texts := []string{"", ",", "N", "N,", "AIR", "REG AIR", "lineitem 000000042 v0000 note", "lineitem 42 v0000 note",
		"7", "0", "0007", "x" + strings.Repeat("9", 19), "x" + strings.Repeat("9", 20) + "y", "1.", ".25", "+0.5", "1e-2",
		"é 12 <&>", "12ab34,rest", strings.Repeat("z", maxSkeleton) + "1", strings.Repeat("z", maxSkeleton-1) + "12345678901",
	}
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for k := range b {
			b[k] = "ab 0159,é"[rng.Intn(10)]
		}
		texts = append(texts, string(b))
	}
	var entries []dictEntry
	seen := map[string]bool{}
	for _, s := range texts {
		var sk [maxSkeleton]byte
		if k, _, _, _, ok := skeletonOf(s, &sk, nil, false); ok && !seen[string(k)] {
			seen[string(k)] = true
			e, err := newEntry(string(k))
			if err != nil {
				t.Fatalf("skeleton %q of %q: %v", k, s, err)
			}
			entries = append(entries, e)
		}
	}
	for _, s := range texts {
		var sk [maxSkeleton]byte
		k, runs, _, end, ok := skeletonOf(s, &sk, nil, true)
		for i := range entries {
			e := &entries[i]
			got, gotEnd, match := matchEntry(e, s, nil, true)
			want := ok && string(k) == e.skeleton
			if match != want || match && (gotEnd != end || string(got) != string(runs)) {
				t.Fatalf("column %q against entry %q: matchEntry says %v (end %d, runs %x), the skeleton %q (ok %v, end %d, runs %x)",
					s, e.skeleton, match, gotEnd, got, k, ok, end, runs)
			}
		}
	}
}
