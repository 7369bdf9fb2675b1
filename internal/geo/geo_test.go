package geo

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRTTSymmetric(t *testing.T) {
	for _, a := range All {
		for _, b := range All {
			if RTT(a, b) != RTT(b, a) {
				t.Fatalf("RTT(%v,%v) asymmetric", a, b)
			}
		}
	}
}

func TestRTTPositiveAndLocalSmall(t *testing.T) {
	for _, a := range All {
		if RTT(a, a) <= 0 || RTT(a, a) > 5*time.Millisecond {
			t.Fatalf("local RTT of %v = %v", a, RTT(a, a))
		}
		for _, b := range All {
			if a != b && RTT(a, b) < 10*time.Millisecond {
				t.Fatalf("inter-city RTT %v-%v too small: %v", a, b, RTT(a, b))
			}
		}
	}
}

func TestIntercontinentalOrdering(t *testing.T) {
	// Asia–NA must exceed intra-Europe.
	if RTT(Bangalore, NewYork) <= RTT(London, Frankfurt) {
		t.Fatal("continental ordering violated")
	}
	if RTT(Toronto, NewYork) >= RTT(Toronto, Singapore) {
		t.Fatal("NA-local should beat NA-Asia")
	}
}

func TestStringsTotal(t *testing.T) {
	f := func(raw int8) bool {
		l := Location(raw)
		return l.String() != "" && l.Short() != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMediumProfiles(t *testing.T) {
	wired := MediumProfile(Wired)
	wireless := MediumProfile(Wireless)
	if wireless.Loss <= wired.Loss {
		t.Fatal("wireless must be lossier than wired")
	}
	if wireless.Jitter <= wired.Jitter {
		t.Fatal("wireless must be jitterier than wired")
	}
	if Wired.String() == Wireless.String() {
		t.Fatal("medium strings must differ")
	}
}

func TestClientServerGrid(t *testing.T) {
	if len(Clients) != 3 || len(Servers) != 3 {
		t.Fatal("the paper's 3x3 grid needs 3 client and 3 server cities")
	}
	for _, c := range Clients {
		for _, s := range Servers {
			if c == s {
				t.Fatalf("client and server city overlap: %v", c)
			}
		}
	}
}
