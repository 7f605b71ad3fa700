package cosmo

// CacheEntries counts what the two process-wide caches hold. Counting is
// the only use Range may have: nothing order-dependent leaves the caches.
func CacheEntries() (spectrumEntries, gridEntries int) {
	spectra.Range(func(_, _ any) bool { spectrumEntries++; return true })
	massGrids.Range(func(_, _ any) bool { gridEntries++; return true })
	return
}
