// Package web provides the destination side of the PTPerf measurements:
// deterministic synthetic website catalogs standing in for the Tranco
// top-1k and the Citizen-Lab/Berkman blocked list (CBL-1k), a minimal
// HTTP/1.1 origin server, and a bulk-file host for the 5–100 MB download
// experiments.
package web

import (
	"fmt"
	"math"
	"math/rand"

	"ptperf/internal/sim"
)

// List names the two website populations of the paper.
type List string

// The two site lists used throughout the paper.
const (
	// Tranco is the popular-websites list (Tranco top-1k).
	Tranco List = "tranco"
	// CBL is the blocked-websites list (Citizen Lab + Berkman 1k).
	CBL List = "cbl"
)

// Resource is one sub-resource referenced by a page (script, image, …).
type Resource struct {
	// Path is the origin-relative path of the resource.
	Path string
	// Bytes is the body size.
	Bytes int
	// VisualWeight is the resource's share of the page's visual
	// completeness, used by the speed-index metric. Weights of a page
	// (including the base document) sum to 1.
	VisualWeight float64
}

// Site is one synthetic website.
type Site struct {
	// ID indexes the site within its list.
	ID int
	// List is the population this site belongs to.
	List List
	// Path is the origin-relative path of the default page.
	Path string
	// PageBytes is the size of the default page body.
	PageBytes int
	// BaseVisualWeight is the default document's own share of visual
	// completeness.
	BaseVisualWeight float64
	// Resources are the page's sub-resources, fetched by the browser
	// emulator but not by the curl-style fetcher.
	Resources []Resource
}

// Catalog is a generated website population.
type Catalog struct {
	// List identifies the population.
	List List
	// Sites are the generated sites, indexed by ID.
	Sites []Site
}

// lognormal draws a log-normally distributed value with the given median
// and shape, clamped to [lo, hi].
func lognormal(rng *rand.Rand, median, sigma, lo, hi float64) float64 {
	v := median * math.Exp(rng.NormFloat64()*sigma)
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// GenerateCatalog builds a deterministic catalog of n sites. Page and
// resource sizes follow heavy-tailed (log-normal) distributions tuned to
// published web-measurement medians: default documents of a few tens of
// KB, pages of 10–60 sub-resources totalling ~1–2 MB. byteScale scales
// every size (see DESIGN.md: the simulation scales sizes and rates
// together, which preserves durations).
func GenerateCatalog(list List, n int, seed int64, byteScale float64) *Catalog {
	if byteScale <= 0 {
		byteScale = 1
	}
	rng := sim.NewRand(seed ^ int64(len(list))<<32 + 0x9e3779b9)
	cat := &Catalog{List: list, Sites: make([]Site, n)}
	for i := 0; i < n; i++ {
		pageBytes := int(lognormal(rng, 38<<10, 0.9, 2<<10, 1<<20) * byteScale)
		nres := int(lognormal(rng, 22, 0.7, 3, 120))
		site := Site{
			ID:        i,
			List:      list,
			Path:      fmt.Sprintf("/site/%s/%d", list, i),
			PageBytes: clampMin(pageBytes, 64),
		}
		weights := make([]float64, nres+1)
		var wsum float64
		for k := range weights {
			weights[k] = 0.2 + float64(rng.Float64())
			wsum += weights[k]
		}
		site.BaseVisualWeight = float64(weights[0] / wsum * 1.5) // the document skeleton matters more
		rest := 1 - site.BaseVisualWeight
		var restSum float64
		for k := 1; k < len(weights); k++ {
			restSum += weights[k]
		}
		for k := 0; k < nres; k++ {
			resBytes := int(lognormal(rng, 14<<10, 1.1, 200, 800<<10) * byteScale)
			site.Resources = append(site.Resources, Resource{
				Path:         fmt.Sprintf("/res/%s/%d/%d", list, i, k),
				Bytes:        clampMin(resBytes, 32),
				VisualWeight: rest * weights[k+1] / restSum,
			})
		}
		cat.Sites[i] = site
	}
	return cat
}

func clampMin(v, lo int) int {
	if v < lo {
		return lo
	}
	return v
}

// FileSizesMB are the bulk-download sizes of Figure 5.
var FileSizesMB = []int{5, 10, 20, 50, 100}

// FilePath returns the origin path serving sizeBytes of body.
func FilePath(sizeBytes int) string { return fmt.Sprintf("/file/%d", sizeBytes) }
