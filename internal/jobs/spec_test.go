package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"swapcodes/internal/harness"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	s := Spec{Kind: KindCampaign}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Tuples != 10000 || s.Seed != 1 {
		t.Fatalf("campaign defaults = tuples %d, seed %d", s.Tuples, s.Seed)
	}

	p := Spec{Kind: KindPerf}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(p.Schemes) == 0 {
		t.Fatal("perf default schemes empty")
	}

	bad := []Spec{
		{},
		{Kind: "nope"},
		{Kind: KindCampaign, Tuples: -1},
		{Kind: KindCampaign, Schemes: []string{"sw-dup"}},
		{Kind: KindPerf, Schemes: []string{"not-a-scheme"}},
		{Kind: KindVerify, Tuples: 5},
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("bad spec %d normalized without error: %+v", i, s)
		}
	}
}

func TestSpecKeyContentAddress(t *testing.T) {
	// Defaults spelled out and defaults left implicit share one identity.
	a := Spec{Kind: KindCampaign}
	b := Spec{Kind: KindCampaign, Tuples: 10000, Seed: 1}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatal("implicit and explicit defaults hash differently")
	}
	// Tenant is fairness metadata, not content: different tenants share
	// cache entries for identical work.
	c := b
	c.Tenant = "team-a"
	if c.Key() != b.Key() {
		t.Fatal("tenant changed the content address")
	}
	// Different work hashes differently.
	d := Spec{Kind: KindCampaign, Tuples: 10000, Seed: 2}
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	if d.Key() == b.Key() {
		t.Fatal("different seeds share a content address")
	}
}

// TestSpecKeyCoversResultFields is the guard against a silently stale cache:
// every spec field that changes what a job computes must change its content
// address, and the knob that provably doesn't (tenant fairness) must not. A
// new result-affecting Spec field added without a mutation
// here — or worse, without being hashed — fails this test by construction:
// the reflection walk below flags any field it has no mutation for.
func TestSpecKeyCoversResultFields(t *testing.T) {
	base := Spec{Kind: KindCPIStack}
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	// One mutation per field, each keeping the spec valid under Normalize.
	mutations := map[string]struct {
		mutate        func(*Spec)
		affectsResult bool
	}{
		"Kind":       {func(s *Spec) { s.Kind = KindPerf }, true},
		"Tenant":     {func(s *Spec) { s.Tenant = "team-a" }, false},
		"Tuples":     {func(s *Spec) { s.Kind = KindCampaign; s.Schemes = nil; s.Tuples = 777 }, true},
		"Seed":       {func(s *Spec) { s.Kind = KindCampaign; s.Schemes = nil; s.Seed = 99 }, true},
		"Schemes":    {func(s *Spec) { s.Schemes = []string{"sw-dup"} }, true},
		"SkipVerify": {func(s *Spec) { s.SkipVerify = true }, true},
		"MemModel":   {func(s *Spec) { s.MemModel = "sectored" }, true},
	}
	rt := reflect.TypeOf(Spec{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		mut, ok := mutations[name]
		if !ok {
			t.Errorf("Spec field %s has no cache-key mutation in this test: decide whether it affects results and add one", name)
			continue
		}
		s := Spec{Kind: KindCPIStack}
		mut.mutate(&s)
		if err := s.Normalize(); err != nil {
			t.Errorf("%s mutation does not normalize: %v", name, err)
			continue
		}
		changed := s.Key() != base.Key()
		if changed != mut.affectsResult {
			t.Errorf("field %s: key changed = %v, want %v", name, changed, mut.affectsResult)
		}
	}
	// "off" and "" are the same timing model and must share a cache entry.
	off := Spec{Kind: KindCPIStack, MemModel: "off"}
	if err := off.Normalize(); err != nil {
		t.Fatal(err)
	}
	if off.Key() != base.Key() {
		t.Error(`mem_model "off" and the implicit default hash differently`)
	}
	// Campaigns force the flat path: an armed MemModel is normalized away.
	camp := Spec{Kind: KindCampaign, MemModel: "sectored"}
	if err := camp.Normalize(); err != nil {
		t.Fatal(err)
	}
	if camp.MemModel != "" {
		t.Errorf("campaign kept mem_model %q, want cleared", camp.MemModel)
	}
}

// TestSkipVerifyKeysNoFaultResult: skip_verify changes only what a perf or
// cpistack sweep computes, so a campaign, headline or verify spec with it
// normalizes to the key of the same spec without it.
func TestSkipVerifyKeysNoFaultResult(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindCampaign, Tuples: 1000, Seed: 1},
		{Kind: KindHeadline, Tuples: 1000, Seed: 1},
		{Kind: KindVerify},
	} {
		skip := spec
		skip.SkipVerify = true
		for _, s := range []*Spec{&spec, &skip} {
			if err := s.Normalize(); err != nil {
				t.Fatal(err)
			}
		}
		if skip.Key() != spec.Key() || skip.SkipVerify {
			t.Errorf("%s spec with skip_verify keys %s, without %s; want one key and the field cleared",
				spec.Kind, skip.Key()[:12], spec.Key()[:12])
		}
	}
}

// Content addresses of two normalized specs, as computed before the SM's
// worker count left Spec. CAS entries and cached results written then are
// stored under these keys, so they must never move.
const (
	campaignKeyHex = "5a4f87ccec064ceaed51167b7aef52af868ebfdca6736337099e9d5e9c83c527"
	perfKeyHex     = "2b4853a1722069c1f5c98b397b2d90aa4db706478ecef802b443d691ea53e702"
)

func TestSpecKeyStable(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: KindCampaign}, campaignKeyHex},
		{Spec{Kind: KindPerf}, perfKeyHex},
	} {
		if err := c.spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		if got := c.spec.Key(); got != c.want {
			t.Errorf("%s spec key = %s, want %s (cached results would miss)", c.spec.Kind, got, c.want)
		}
	}
}

// TestPerfDefaultSchemesAreFigure12: a perf spec without schemes gets
// Figure 12's, by name and in the order the hand-written list had, so its
// content address (TestSpecKeyStable) is unchanged.
func TestPerfDefaultSchemesAreFigure12(t *testing.T) {
	s := Spec{Kind: KindPerf}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	schemes, err := harness.ParseSchemes(s.Schemes)
	if err != nil || !slices.Equal(schemes, harness.Fig12Schemes()) ||
		!slices.Equal(s.Schemes, []string{"sw-dup", "swap-ecc", "pre-addsub", "pre-mad"}) {
		t.Errorf("default schemes %q (%v), want Figure 12's: sw-dup, swap-ecc, pre-addsub, pre-mad", s.Schemes, err)
	}
}

// TestSubmitIgnoresRetiredSMWorkers: a POST /jobs body written for the
// retired "sm_workers" field still decodes and normalizes, and the job gets
// the same spec and content address as the body without it.
func TestSubmitIgnoresRetiredSMWorkers(t *testing.T) {
	svc, c := testServer(t)
	resp, err := c.HTTPClient.Post(c.Base+"/jobs", "application/json",
		strings.NewReader(`{"kind":"perf","sm_workers":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs with sm_workers = %s", resp.Status)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	j, ok := svc.Get(out.ID)
	if !ok {
		t.Fatalf("job %q not found", out.ID)
	}
	want := Spec{Kind: KindPerf}
	if err := want.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got := j.Status().Spec; !reflect.DeepEqual(got, want) {
		t.Errorf("spec = %+v, want %+v", got, want)
	}
	if got := j.Status().Spec.Key(); got != perfKeyHex {
		t.Errorf("key = %s, want %s", got, perfKeyHex)
	}
	if !strings.HasSuffix(out.ID, perfKeyHex[:8]) {
		t.Errorf("job id %q does not carry the key prefix %s", out.ID, perfKeyHex[:8])
	}
}

// TestSubmitRefusesTuplesAboveBound: a campaign or headline spec with more
// than MaxTuples tuples is a 400 naming the bound, refused before anything
// is sized from it; MaxTuples itself is accepted.
func TestSubmitRefusesTuplesAboveBound(t *testing.T) {
	for _, kind := range []string{KindCampaign, KindHeadline} {
		at := Spec{Kind: kind, Tuples: MaxTuples}
		if err := at.Normalize(); err != nil {
			t.Errorf("%s at the bound: %v", kind, err)
		}
	}
	svc, c := testServer(t)
	body := fmt.Sprintf(`{"kind":"campaign","tuples":%d}`, MaxTuples+1)
	resp, err := c.HTTPClient.Post(c.Base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), fmt.Sprint(MaxTuples)) {
		t.Fatalf("POST tuples=%d: HTTP %d %s; want 400 naming %d", MaxTuples+1, resp.StatusCode, msg, MaxTuples)
	}
	if n := len(svc.List()); n != 0 {
		t.Fatalf("refused spec left %d jobs", n)
	}
}

// FuzzSpecNormalize feeds arbitrary bytes to the POST /jobs decoder and
// normalizes whatever decodes: no input panics either, normalizing an
// accepted spec again changes nothing and keeps its Key, and an accepted
// campaign or headline spec asks for 1 to MaxTuples tuples. The seeds are
// this file's specs, the retired sm_workers body, a campaign with an empty
// scheme list and a campaign one tuple above the bound.
func FuzzSpecNormalize(f *testing.F) {
	for _, s := range []Spec{
		{Kind: KindCampaign},
		{Kind: KindCampaign, Tuples: 10000, Seed: 1},
		{Kind: KindCampaign, Tuples: 10000, Seed: 2, Tenant: "t"},
		{Kind: KindPerf},
		{Kind: KindCPIStack},
		{Kind: KindCPIStack, MemModel: "off"},
		{Kind: KindCPIStack, MemModel: "sectored", Schemes: []string{"swap-ecc"}},
		{Kind: KindCampaign, MemModel: "sectored"},
		{Kind: KindHeadline, Tuples: MaxTuples},
		{},
		{Kind: "nope"},
		{Kind: KindCampaign, Tuples: -1},
		{Kind: KindCampaign, Schemes: []string{"sw-dup"}},
		{Kind: KindPerf, Schemes: []string{"not-a-scheme"}},
		{Kind: KindVerify, Tuples: 5},
		{Kind: KindCampaign, Tuples: MaxTuples + 1},
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"kind":"perf","sm_workers":4}`))
	f.Add([]byte(`{"kind":"campaign","schemes":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Normalize(); err != nil {
			return
		}
		key := s.Key()
		again := s
		again.Schemes = slices.Clone(s.Schemes)
		if err := again.Normalize(); err != nil {
			t.Fatalf("normalized spec %+v refused on a second Normalize: %v", s, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("second Normalize changed %+v to %+v", s, again)
		}
		if again.Key() != key {
			t.Fatalf("second Normalize moved the key of %+v", s)
		}
		if (s.Kind == KindCampaign || s.Kind == KindHeadline) && (s.Tuples < 1 || s.Tuples > MaxTuples) {
			t.Fatalf("accepted %s spec with %d tuples, want 1 to %d", s.Kind, s.Tuples, MaxTuples)
		}
	})
}
