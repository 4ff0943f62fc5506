package workload_test

import "testing"

// privateGoldens holds the figures the pure-private and threshold
// baselines produced as two separate packages, before they became two
// refill rules over one allocator. Pure private heaps take no lock.
var privateGoldens = map[string]baselineGolden{
	"threadtest/private":   {168161, 32768, 0, map[string]int64{}},
	"threadtest/threshold": {354655, 16384, 273, map[string]int64{"threshold.class0": 232}},
	"larson/private":       {1037374, 614400, 4376, map[string]int64{}},
	"larson/threshold": {1101667, 491520, 4421, map[string]int64{
		"threshold.class1": 4, "threshold.class2": 4, "threshold.class3": 4, "threshold.class4": 4,
		"threshold.class5": 4, "threshold.class6": 4, "threshold.class7": 4, "threshold.class8": 4,
		"threshold.class9": 4, "threshold.class10": 4, "threshold.class11": 4, "threshold.class12": 4,
		"threshold.class13": 4, "threshold.class14": 4, "threshold.class15": 4, "threshold.class16": 5,
		"threshold.class17": 4}},
	"prodcons/private":   {851300, 98304, 3000, map[string]int64{}},
	"prodcons/threshold": {1375968, 32768, 5112, map[string]int64{"threshold.class6": 89}},
}

// TestPrivateHeapGolden pins threadtest, larson and prodcons over the
// pure-private and threshold baselines.
func TestPrivateHeapGolden(t *testing.T) { runBaselineGoldens(t, privateGoldens) }
