package core

import "testing"

// TestGoldenCellsRunRetryPaths checks that the small-PortDepth golden cells
// really drive the request-retry paths: status reads refused by a full
// marker port or crossbar queue, and PTE fetches refused by the shared
// cache's full crossbar queue. (TestGoldenSimulatedStats covers the
// write-back stall, crossbar stall, L2-TLB hit and filter paths.)
func TestGoldenCellsRunRetryPaths(t *testing.T) {
	for _, c := range goldenCells {
		c := c
		if c.name != "partitioned-port2" && c.name != "shared-port2" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			_, r := goldenRun(t, c)
			if r.HW.Trace.Marker.IssueRetries == 0 {
				t.Error("no marker status-read retry")
			}
			if c.name == "shared-port2" && r.HW.Trace.Walker.PTERetries == 0 {
				t.Error("no PTE fetch retry")
			}
		})
	}
}
