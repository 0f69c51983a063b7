// Package optionsonly is a fixture for the camus-options analyzer:
// seeded direct construction and mutation of the dataplane outside
// internal/pipeline.
package optionsonly

import (
	"camus/internal/pipeline"
)

func directLiteral() *pipeline.Switch {
	sw := &pipeline.Switch{} // want `composite literal of pipeline\.Switch bypasses NewSwitch`
	return sw
}

func valueLiteral() pipeline.Switch {
	return pipeline.Switch{ID: "x"} // want `composite literal of pipeline\.Switch bypasses NewSwitch`
}

func configLiteral() pipeline.Config {
	return pipeline.Config{Workers: 4} // want `composite literal of pipeline\.Config bypasses DefaultConfig`
}

func mutateSwitch(sw *pipeline.Switch) {
	sw.ID = "renamed" // want `mutation of pipeline\.Switch field ID`
}

func sanctioned() (*pipeline.Switch, error) {
	return pipeline.NewSwitch("ok", nil, nil, pipeline.WithWorkers(2))
}
