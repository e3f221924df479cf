package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/streetlevel"
	"geoloc/internal/world"
)

var (
	campOnce sync.Once
	camp     *core.Campaign
)

// tinyCampaign builds one shared tiny-scale campaign (matrices included)
// for every test in the package.
func tinyCampaign(t *testing.T) *core.Campaign {
	t.Helper()
	campOnce.Do(func() {
		camp = core.NewCampaign(world.TinyConfig())
		camp.BuildTargetMatrix()
	})
	return camp
}

func compiled(t *testing.T) *Dataset {
	t.Helper()
	return Compile(tinyCampaign(t), Options{IncludeUnsanitized: true})
}

func TestCompileShape(t *testing.T) {
	c := tinyCampaign(t)
	d := compiled(t)
	if len(d.Records) == 0 {
		t.Fatal("compiled dataset is empty")
	}
	if d.Hdr.Seed != c.W.Cfg.Seed || d.Hdr.ConfigHash != c.ConfigHash() || d.Hdr.Profile != "raw" {
		t.Fatalf("header %+v does not identify the campaign", d.Hdr)
	}
	sanitized, unsanitized := 0, 0
	for i, r := range d.Records {
		if i > 0 && d.Records[i-1].Prefix >= r.Prefix {
			t.Fatalf("records not strictly sorted at %d", i)
		}
		if r.Sanitized {
			sanitized++
			if r.Method != MethodCBG && r.Method != MethodShortestPing {
				t.Fatalf("sanitized record %s has method %s", r.Prefix, r.Method)
			}
			if r.RadiusKm <= 0 {
				t.Fatalf("sanitized record %s has no confidence radius", r.Prefix)
			}
		} else {
			unsanitized++
			if r.Method != MethodReported || r.RadiusKm != 0 {
				t.Fatalf("unsanitized record %s: method %s radius %g", r.Prefix, r.Method, r.RadiusKm)
			}
		}
		if !r.Centroid.Valid() {
			t.Fatalf("record %s has invalid centroid %v", r.Prefix, r.Centroid)
		}
	}
	// Targets can share a /24 (the allocator packs hosts per AS prefix),
	// and a removed anchor sharing a target's /24 loses to the sanitized
	// record — count distinct prefixes, not hosts.
	targetPfx := map[ipaddr.Prefix24]bool{}
	for _, target := range c.Targets {
		targetPfx[ipaddr.Prefix24Of(target.Addr)] = true
	}
	removedPfx := map[ipaddr.Prefix24]bool{}
	for _, id := range c.RemovedAnchors {
		p := ipaddr.Prefix24Of(c.W.Host(id).Addr)
		if !targetPfx[p] {
			removedPfx[p] = true
		}
	}
	if sanitized != len(targetPfx) {
		t.Fatalf("%d sanitized records, want one per distinct target /24 (%d)", sanitized, len(targetPfx))
	}
	if unsanitized != len(removedPfx) {
		t.Fatalf("%d unsanitized records, want one per distinct removed-anchor /24 (%d)", unsanitized, len(removedPfx))
	}
}

// TestConfidenceRadiusCoversTruth checks the HLOC-style contract on the
// synthetic ground truth: the true location lies within the confidence
// radius of the centroid. The analytic radius bound guarantees it
// whenever the truth satisfies every constraint, which the simulator's
// 2/3c speed bound ensures. Prefixes holding two different targets are
// skipped — a per-/24 dataset can only be right about one of them.
func TestConfidenceRadiusCoversTruth(t *testing.T) {
	c := tinyCampaign(t)
	d := Compile(c, Options{})
	perPrefix := map[ipaddr.Prefix24]int{}
	for _, target := range c.Targets {
		perPrefix[ipaddr.Prefix24Of(target.Addr)]++
	}
	covered, total := 0, 0
	for _, target := range c.Targets {
		if perPrefix[ipaddr.Prefix24Of(target.Addr)] > 1 {
			continue
		}
		r, ok := d.Find(target.Addr)
		if !ok || r.Method != MethodCBG {
			continue
		}
		total++
		if geo.Distance(r.Centroid, target.Loc) <= r.RadiusKm {
			covered++
		}
	}
	if total == 0 {
		t.Fatal("no CBG records to check")
	}
	if covered != total {
		t.Fatalf("%d of %d single-target prefixes outside their confidence radius", total-covered, total)
	}
}

func TestCompileDeterministic(t *testing.T) {
	c := tinyCampaign(t)
	a := Compile(c, Options{IncludeUnsanitized: true}).Encode()
	b := Compile(c, Options{IncludeUnsanitized: true}).Encode()
	if string(a) != string(b) {
		t.Fatal("recompiling the same campaign changed the artifact bytes")
	}
}

// TestEncodeDecodeRoundTrip: Encode's image read back through the one
// reader is the dataset again — header (Version included) and every record.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := compiled(t)
	r2, err := NewReader2(d.Encode())
	if err != nil {
		t.Fatalf("NewReader2: %v", err)
	}
	got, err := r2.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if got.Hdr != d.Hdr || got.Hdr.Version != Version {
		t.Fatalf("header round-trip: %+v vs %+v", got.Hdr, d.Hdr)
	}
	if len(got.Records) != len(d.Records) {
		t.Fatalf("record count round-trip: %d vs %d", len(got.Records), len(d.Records))
	}
	for i := range got.Records {
		if got.Records[i] != d.Records[i] {
			t.Fatalf("record %d round-trip: %+v vs %+v", i, got.Records[i], d.Records[i])
		}
	}
}

func TestWriteLoad(t *testing.T) {
	d := compiled(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.geodset")
	if err := d.Write(path); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got.Records) != len(d.Records) || got.Hdr != d.Hdr {
		t.Fatal("loaded dataset differs from written one")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temporary file left behind")
	}
	if img, err := os.ReadFile(path); err != nil || !bytes.Equal(img, d.Encode()) {
		t.Fatalf("Write stored different bytes than Encode returns (read error %v)", err)
	}

	// A commit that cannot rename — the destination is a non-empty
	// directory — returns the error and removes its temporary file.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "occupant"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(blocked); err == nil {
		t.Fatal("Write onto a non-empty directory succeeded")
	}
	if _, err := os.Stat(blocked + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temporary file left behind by a failed commit")
	}
}

// loadBytes stores img as a file and Loads it.
func loadBytes(t *testing.T, img []byte) (*Dataset, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img.geodset2")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return Load(path)
}

// TestDecodeNamedErrors: Load decodes the whole file or fails with a named
// error — eagerly, damage inside a block included, where Open2 would only
// report that on the block's first touch.
func TestDecodeNamedErrors(t *testing.T) {
	good := compiled(t).Encode()
	firstRecord := firstBlockOff(good) + frameOverhead + 2
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"bad magic", []byte("NOTADSET................"), ErrBadMagic},
		{"magic only", []byte(Magic2), ErrTruncated},
		{"torn tail", good[:len(good)-3], ErrTruncated},
		{"torn mid frame", good[:len(Magic2)+4], ErrTruncated},
		{"flipped record byte", flip(good, firstRecord+8), ErrCorrupt},
		{"flipped header byte", flip(good, len(Magic2)+frameOverhead+1), ErrCorrupt},
	}
	for _, c := range cases {
		if _, err := loadBytes(t, c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: Load err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.bin")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: Load err = %v, want os.ErrNotExist", err)
	}
}

func flip(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xFF
	return out
}

// TestDecodeRejectsBadVersion: a header carrying any version but the
// current one — the retired flat format's 1 included — is refused.
func TestDecodeRejectsBadVersion(t *testing.T) {
	good := compiled(t).Encode()
	for _, v := range []byte{Version - 1, Version + 1} {
		bad := append([]byte(nil), good...)
		bad[len(Magic2)+frameOverhead] = v // header payload version u32, low byte
		patchFrameCRC(bad, len(Magic2))
		if _, err := loadBytes(t, bad); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: err = %v, want ErrBadVersion", v, err)
		}
	}
}

// TestDecodeRejectsUnsortedRecords: neither end of the format lets
// disorder through — Write refuses to store it (and leaves nothing
// behind), Load refuses an image that holds it.
func TestDecodeRejectsUnsortedRecords(t *testing.T) {
	for _, name := range []string{"unsorted", "duplicate-prefix"} {
		ds := badRecordDataset(t, name)
		path := filepath.Join(t.TempDir(), "x.geodset2")
		if err := ds.Write(path); err == nil {
			t.Errorf("%s: Write accepted the records", name)
		}
		for _, p := range []string{path, path + ".tmp"} {
			if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s: rejected Write left %s behind", name, p)
			}
		}
		if _, err := loadBytes(t, ds.Encode()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestFindAndIndexAgree: Dataset.Find answers every record's /24. (The
// index it used to be compared with no longer serves; the reader's
// agreement with a linear scan is TestDataset2LookupOracle.)
func TestFindAndIndexAgree(t *testing.T) {
	d := compiled(t)
	for _, r := range d.Records {
		addr := r.Prefix.Addr(17)
		fr, ok := d.Find(addr)
		if !ok || fr != r {
			t.Fatalf("Find(%s) = %+v, %v", addr, fr, ok)
		}
	}
	if _, ok := d.Find(ipaddr.MustParse("203.0.113.9")); ok {
		t.Fatal("Find matched an address outside every prefix")
	}
}

func TestSortRecordsDedupe(t *testing.T) {
	d := &Dataset{Records: []Record{
		{Prefix: 30, RadiusKm: 50, Method: MethodCBG, Sanitized: true},
		{Prefix: 10, RadiusKm: 5, Method: MethodReported},
		{Prefix: 10, RadiusKm: 99, Method: MethodCBG, Sanitized: true},
		{Prefix: 30, RadiusKm: 20, Method: MethodCBG, Sanitized: true},
	}}
	sortRecords(d)
	if len(d.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(d.Records))
	}
	if !d.Records[0].Sanitized || d.Records[0].RadiusKm != 99 {
		t.Fatalf("prefix 10 kept %+v, want the sanitized record", d.Records[0])
	}
	if d.Records[1].RadiusKm != 20 {
		t.Fatalf("prefix 30 kept %+v, want the tighter radius", d.Records[1])
	}
}

func TestMergeStreetLevel(t *testing.T) {
	c := tinyCampaign(t)
	d := Compile(c, Options{})
	res := []streetlevel.Result{
		{Target: 0, Estimate: geo.Point{Lat: 1.25, Lon: 2.5}, Method: "landmark"},
		{Target: 1, Estimate: geo.Point{Lat: -3, Lon: 4}, Method: "cbg"},
		{Target: 99999, Estimate: geo.Point{}, Method: "landmark"}, // out of range: ignored
	}
	if n := MergeStreetLevel(d, c, res); n != 2 {
		t.Fatalf("updated %d records, want 2", n)
	}
	r0, _ := d.Find(c.Targets[0].Addr)
	if r0.Method != MethodStreetLandmark || r0.Centroid.Lat != 1.25 {
		t.Fatalf("target 0 record %+v", r0)
	}
	if r0.RadiusKm <= 0 {
		t.Fatal("street-level merge dropped the confidence radius")
	}
	r1, _ := d.Find(c.Targets[1].Addr)
	if r1.Method != MethodStreetCBG || r1.Centroid.Lat != -3 {
		t.Fatalf("target 1 record %+v", r1)
	}
}

func TestMethodStrings(t *testing.T) {
	want := map[Method]string{
		MethodReported:       "reported",
		MethodShortestPing:   "shortest-ping",
		MethodCBG:            "cbg",
		MethodStreetCBG:      "street-cbg",
		MethodStreetLandmark: "street-landmark",
		Method(200):          "method-200",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Method(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
}

// TestDecodeRejectsBadGeometry: Load never hands back a record whose
// geometry is out of range, however well-framed the image around it.
func TestDecodeRejectsBadGeometry(t *testing.T) {
	for _, name := range []string{"lat-95", "nan-radius", "negative-radius"} {
		if _, err := loadBytes(t, badRecordDataset(t, name).Encode()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
