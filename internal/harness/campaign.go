package harness

import (
	"fmt"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/pt"
	"ptperf/internal/testbed"
)

// accessData holds one method's aligned per-site measurements: index i
// of every slice refers to the same site, which is what makes paired
// t-tests across methods valid.
type accessData struct {
	// Name is the access method.
	Name string
	// Times are per-site mean access times (seconds).
	Times []float64
	// TTFBs are per-site mean times to first byte (seconds).
	TTFBs []float64
	// SpeedIndexes are per-site mean speed indexes (seconds; selenium
	// campaigns only).
	SpeedIndexes []float64
}

// pageTimeout mirrors the paper's 120 s page timeout.
const pageTimeout = 120 * time.Second

// fileTimeout mirrors the paper's 1200 s bulk timeout.
const fileTimeout = 1200 * time.Second

// accessIn is what an access campaign (curl, selenium) reads of the
// Config.
type accessIn struct {
	Methods    []string
	Repeats    int
	Sequential bool
}

// accessCell names one access campaign's world. All three paper
// campaigns build their world on streamCampaign, so curl, selenium and
// bulk downloads measure the same topology, relay draws and catalogs —
// they only differ in what the client does, exactly like the paper's
// campaigns running on one deployment.
type accessCell = cell[accessIn, map[string]*accessData]

// curlCell is the curl website-access campaign: every configured method
// over Tranco+CBL.
func (c Config) curlCell() accessCell {
	return accessCell{
		key:     "access:curl",
		opts:    c.worldOptions(streamCampaign),
		in:      accessIn{c.Transports, c.Repeats, c.Sequential},
		measure: measureCurl,
	}
}

// seleniumCell is the browser campaign over the browser-capable methods.
func (c Config) seleniumCell() accessCell {
	return accessCell{
		key:     "access:selenium",
		opts:    c.worldOptions(streamCampaign),
		in:      accessIn{c.seleniumMethods(), c.Repeats, c.Sequential},
		measure: measureSelenium,
	}
}

// seleniumMethods filters the configured transports down to the
// browser-capable subset: transports that cannot serve parallel streams
// (camoufler, §4.2) are excluded. Table 1's selenium and speed-index
// counts use the same subset.
func (c Config) seleniumMethods() []string {
	methods := make([]string, 0, len(c.Transports))
	for _, m := range c.Transports {
		if info, ok := pt.InfoFor(m); ok && !info.ParallelStreams {
			continue
		}
		methods = append(methods, m)
	}
	return methods
}

func measureCurl(w *testbed.World, in accessIn) (map[string]*accessData, error) {
	return measureAccess(w, in, curlAccess)
}

func measureSelenium(w *testbed.World, in accessIn) (map[string]*accessData, error) {
	return measureAccess(w, in, browserAccess)
}

// curlAccess and browserAccess are one access of one site: total time,
// time to first byte and speed index, in seconds.
func curlAccess(w *testbed.World, d *testbed.Deployment, path string) (total, ttfb, speedIndex float64) {
	c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: pageTimeout}
	res := c.Get(w.Origin.Addr(), path, false)
	return seconds(res.Total), seconds(res.TTFB), 0
}

func browserAccess(w *testbed.World, d *testbed.Deployment, path string) (total, ttfb, speedIndex float64) {
	c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: pageTimeout}
	pr := c.Browse(w.Origin.Addr(), path, fetch.DefaultBrowserConns)
	if !pr.OK {
		// Incomplete page loads count as the timeout, as selenium
		// reports them; a dead circuit is rebuilt for the next run.
		d.FreshCircuit()
		return pageTimeout.Seconds(), seconds(pr.TTFB), pageTimeout.Seconds()
	}
	return seconds(pr.PageLoadTime), seconds(pr.TTFB), seconds(pr.SpeedIndex)
}

// measureAccess runs one access campaign over an already-built world:
// per method, the per-site means of in.Repeats accesses.
func measureAccess(w *testbed.World, in accessIn, access func(*testbed.World, *testbed.Deployment, string) (total, ttfb, speedIndex float64)) (map[string]*accessData, error) {
	sites := sitePaths(w)
	return testbed.ForEachMethod(w, in.Methods, in.Sequential, func(name string) (*accessData, error) {
		d, err := w.Deployment(name)
		if err != nil {
			return nil, err
		}
		if err := d.Preheat(); err != nil {
			return nil, fmt.Errorf("preheat: %w", err)
		}
		data := &accessData{Name: name}
		n := float64(in.Repeats)
		for si, site := range sites {
			// MaxCircuitDirtiness analog: rotate circuits every few
			// sites, as a real client browsing this long would.
			if si > 0 && si%8 == 0 {
				d.FreshCircuit()
				if err := d.Preheat(); err != nil {
					return nil, fmt.Errorf("circuit rotation: %w", err)
				}
			}
			var tSum, fSum, sSum float64
			for rep := 0; rep < in.Repeats; rep++ {
				total, ttfb, speedIndex := access(w, d, site)
				tSum += total
				fSum += ttfb
				sSum += speedIndex
			}
			data.Times = append(data.Times, tSum/n)
			data.TTFBs = append(data.TTFBs, fSum/n)
			data.SpeedIndexes = append(data.SpeedIndexes, sSum/n)
		}
		// Park the transport when its campaign ends: polling tunnels
		// (dnstt, meek, camoufler) otherwise keep generating events
		// through every virtual second of the remaining methods'
		// campaigns, which dominates scheduler load.
		d.FreshCircuit()
		return data, nil
	})
}

// fileAttempt is one bulk-download attempt.
type fileAttempt struct {
	// SizeBytes is the requested (scaled) file size.
	SizeBytes int
	// SizeMB is the paper-scale label (5/10/20/50/100).
	SizeMB int
	// Seconds is the attempt duration.
	Seconds float64
	// Fraction is the share of the file received.
	Fraction float64
	// Complete / Failed classify the attempt (else partial).
	Complete, Failed bool
}

// fileData holds one method's download attempts.
type fileData struct {
	Name     string
	Attempts []fileAttempt
}

// meanTime returns the mean duration of complete downloads of one size,
// and how many attempts completed.
func (fd *fileData) meanTime(sizeMB int) (float64, int) {
	var sum float64
	n := 0
	for _, a := range fd.Attempts {
		if a.SizeMB == sizeMB && a.Complete {
			sum += a.Seconds
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// counts returns (complete, partial, failed) attempt counts.
func (fd *fileData) counts() (int, int, int) {
	var c, p, f int
	for _, a := range fd.Attempts {
		switch {
		case a.Complete:
			c++
		case a.Failed:
			f++
		default:
			p++
		}
	}
	return c, p, f
}

// fractions lists per-attempt downloaded fractions.
func (fd *fileData) fractions() []float64 {
	out := make([]float64, 0, len(fd.Attempts))
	for _, a := range fd.Attempts {
		out = append(out, a.Fraction)
	}
	return out
}

// filesIn is what the bulk-download campaign reads of the Config.
type filesIn struct {
	Methods  []string
	SizesMB  []int
	Attempts int
}

// filesCell is the bulk-download campaign world.
func (c Config) filesCell() cell[filesIn, map[string]*fileData] {
	return cell[filesIn, map[string]*fileData]{
		key:     "files",
		opts:    c.worldOptions(streamCampaign),
		in:      filesIn{c.Transports, c.FileSizesMB, c.FileAttempts},
		measure: measureFiles,
	}
}

// measureFiles downloads every size in.Attempts times per method, one
// method at a time whatever Config.Sequential says (see
// testbed.ForEachMethod).
func measureFiles(w *testbed.World, in filesIn) (map[string]*fileData, error) {
	return testbed.ForEachMethod(w, in.Methods, true, func(name string) (*fileData, error) {
		d, err := w.Deployment(name)
		if err != nil {
			return nil, err
		}
		if err := d.Preheat(); err != nil {
			return nil, err
		}
		c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: fileTimeout}
		data := &fileData{Name: name}
		for _, mb := range in.SizesMB {
			size := w.Bytes(mb << 20)
			for attempt := 0; attempt < in.Attempts; attempt++ {
				res := c.DownloadFile(w.Origin.Addr(), size)
				data.Attempts = append(data.Attempts, fileAttempt{
					SizeBytes: size,
					SizeMB:    mb,
					Seconds:   seconds(res.Total),
					Fraction:  res.Fraction(),
					Complete:  res.Complete(),
					Failed:    res.Failed(),
				})
				// A broken circuit (snowflake churn, meek budget) must
				// not poison subsequent attempts.
				if !res.Complete() {
					d.FreshCircuit()
					// The transport may be temporarily out of capacity;
					// subsequent dials retry anyway.
					_ = d.Preheat()
				}
			}
		}
		// Park the transport's tunnels (see measureAccess).
		d.FreshCircuit()
		return data, nil
	})
}
