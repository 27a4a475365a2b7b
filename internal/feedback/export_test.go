package feedback

// The package's internals that its external tests (which import serve, and
// serve imports this package) reach.
var (
	SplitSamples = splitSamples
	ShadowMAPE   = shadowMAPE
	FeedStore    = feedStore
	TinyModel    = tinyModel
)

const HoldbackFrac = holdbackFrac
