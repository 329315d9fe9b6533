package experiments

// goldenCases is the registry as TestExperimentRenderGoldens sees it.
func goldenCases() []goldenCase {
	var out []goldenCase
	for _, e := range Registry(nil) {
		out = append(out, goldenCase{e.Name, func(r Runner) (string, error) {
			res, err := e.Run(r)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}})
	}
	return out
}
