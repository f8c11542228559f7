package main

// layerMetrics turns the library probes' spans and counts into the
// per-layer metrics of ir, sg, deduce, core, cars, sched and resilient.
// Times are means over the probed blocks, so that a mean times the
// block count is the layer's total time.
func layerMetrics(s spanSet, lc *layerCounts) map[string]metric {
	blocks := float64(lc.blocks)
	deduceTime := s.total("deduce.newstate") + s.total("deduce.shave")
	rung := func(tier string) metric {
		if lc.rungN[tier] == 0 {
			return metric{0, "ms"}
		}
		return metric{ms(lc.rungTime[tier]) / float64(lc.rungN[tier]), "ms"}
	}
	return map[string]metric{
		"ir.parse_us":                   {us(s.mean("ir.parse")), "us"},
		"ir.longest_dist_ms":            {ms(s.mean("ir.longest_dist")), "ms"},
		"sg.build_ms":                   {ms(s.mean("sg.build")), "ms"},
		"sg.pairs":                      {float64(lc.sgPairs), "count"},
		"deduce.newstate_us":            {us(s.mean("deduce.newstate")), "us"},
		"deduce.probe_steps":            {float64(lc.probeSteps), "count"},
		"deduce.ns_per_step":            {ratio(float64(deduceTime), float64(lc.probeSteps)), "ns"},
		"deduce.allocs_per_probe":       {ratio(float64(lc.probeAllocs), float64(lc.probes)), "count"},
		"core.self_ms":                  {ms(s.mean("core.schedule") - s.mean("sg.build")), "ms"},
		"core.steps_spent":              {float64(lc.stepsSpent), "count"},
		"core.steps_unreported":         {float64(lc.stepsUnreported), "count"},
		"core.awct_tried":               {float64(lc.awctTried), "count"},
		"core.attempts":                 {float64(lc.attempts), "count"},
		"core.attempt_success_ratio":    {ratio(float64(lc.attemptsOK), float64(lc.attempts)), "ratio"},
		"core.learn_probes":             {float64(lc.learnProbes), "count"},
		"core.learn_hits":               {float64(lc.learnHits), "count"},
		"core.learn_hit_ratio":          {ratio(float64(lc.learnHits), float64(lc.learnProbes)), "ratio"},
		"core.vc_solved_frac":           {ratio(float64(lc.solved), blocks), "frac"},
		"cars.schedule_ms":              {ms(s.mean("cars.schedule")), "ms"},
		"sched.validate_us":             {us(s.mean("sched.validate")), "us"},
		"sched.write_text_us":           {us(s.mean("sched.write_text")), "us"},
		"resilient.tier_sg_frac":        {ratio(float64(lc.tiers["sg"]), blocks), "frac"},
		"resilient.tier_retry_frac":     {ratio(float64(lc.tiers["sg-retry"]), blocks), "frac"},
		"resilient.tier_cars_frac":      {ratio(float64(lc.tiers["cars"]), blocks), "frac"},
		"resilient.rung_ms.sg":          rung("sg"),
		"resilient.rung_ms.sg-retry":    rung("sg-retry"),
		"resilient.rung_ms.cars":        rung("cars"),
		"resilient.deadline_overrun_ms": {ratio(ms(lc.overrun), blocks), "ms"},
	}
}

// addServedMetrics adds the per-layer metrics of service, httpapi,
// router and vcclient: span medians per request and counter growth
// over the traced phase. A workload without the served path reads 0.
func addServedMetrics(m map[string]metric, s spanSet, c fleetCounts) {
	lookups := c.svc.CacheHits + c.svc.CacheMisses
	add := map[string]metric{
		"service.fingerprint_us":    {us(s.median("service.fingerprint", false)), "us"},
		"service.submit_hit_us":     {us(s.median("service.submit_hit", false)), "us"},
		"service.hit_ratio":         {ratio(float64(c.svc.CacheHits), float64(lookups)), "ratio"},
		"service.coalesced":         {float64(c.svc.Coalesced), "count"},
		"service.executions":        {float64(c.svc.Scheduled), "count"},
		"service.shed":              {float64(c.svc.Shed), "count"},
		"service.queue_timeouts":    {float64(c.svc.QueueTimeouts), "count"},
		"httpapi.decode_us":         {us(s.median("httpapi.decode", false)), "us"},
		"httpapi.build_requests_us": {us(s.median("httpapi.build_requests", false)), "us"},
		"httpapi.write_response_us": {us(s.median("httpapi.write_response", false)), "us"},
		"router.self_us":            {us(s.median("router", true)), "us"},
		"router.coalesced":          {float64(c.routerCoal), "count"},
		"router.tries":              {float64(c.routerTries), "count"},
		"router.errors":             {float64(c.routerErrors), "count"},
		"vcclient.tries":            {float64(c.client.Tries), "count"},
		"vcclient.retries":          {float64(c.client.Retries), "count"},
		"vcclient.sheds":            {float64(c.client.Sheds), "count"},
	}
	for k, v := range add {
		m[k] = v
	}
}
