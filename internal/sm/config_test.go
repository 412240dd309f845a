package sm

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestLaunchRejectsUnservableConfig pins the launch-time config check: an
// issue rate that is zero, negative, NaN or +Inf, or more resident warps
// than 64 per scheduler, fails the launch before any cycle is simulated,
// with an error naming the field and its value. Without the check a zero
// or negative rate drives the idle skip one cycle per round, so each case
// runs under a deadline that such a launch would hit instead.
func TestLaunchRejectsUnservableConfig(t *testing.T) {
	k := vecAddKernel(1024, 2, 64)
	launch := func(cfg Config) (*Stats, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		return NewGPU(cfg, 3*1024+64).LaunchContext(ctx, k)
	}
	for _, name := range []string{"ThrFxP", "ThrFP32", "ThrFP64", "ThrSFU", "ThrMove",
		"ThrSMem", "ThrGMem", "ThrSpecial", "ThrCtrl"} {
		for _, v := range []float64{0, -1, math.NaN(), math.Inf(1)} {
			cfg := DefaultConfig()
			reflect.ValueOf(&cfg).Elem().FieldByName(name).SetFloat(v)
			st, err := launch(cfg)
			want := fmt.Sprintf("Config.%s = %v", name, v)
			if st != nil || err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s = %v: stats %v, err %v; want no stats and an error naming %q", name, v, st, err, want)
			}
		}
	}
	cfg := DefaultConfig()
	cfg.MaxWarps, cfg.Schedulers = 257, 4
	if st, err := launch(cfg); st != nil || err == nil || !strings.Contains(err.Error(), "MaxWarps = 257") {
		t.Errorf("MaxWarps 257 on 4 schedulers: stats %v, err %v; want no stats and an error naming MaxWarps", st, err)
	}
	cfg.MaxWarps = 256
	if _, err := launch(cfg); err != nil {
		t.Errorf("MaxWarps 256 on 4 schedulers: %v", err)
	}
	if _, err := launch(DefaultConfig()); err != nil {
		t.Errorf("DefaultConfig: %v", err)
	}
}
