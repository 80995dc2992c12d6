package phy

import "math"

// ETX returns the expected transmissions to cross a link with the given
// frame error rate (unacknowledged direction: 1/(1-per)). A per of 1 yields
// +Inf, which weighted routing treats as unusable.
func ETX(per float64) float64 {
	if per >= 1 {
		return math.Inf(1)
	}
	if per <= 0 {
		return 1
	}
	return 1 / (1 - per)
}
