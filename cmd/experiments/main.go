// Command experiments regenerates every table of the paper (Tables 1-9)
// from the synthetic datasets and prints them in the paper's layout.
//
// Usage:
//
//	experiments [-scale quick|medium|full] [-skip-neural] [-workers N] [-out report.txt]
//
// quick matches the test-suite budget (seconds); medium uses the full
// Table 1 cardinalities with a reduced neural budget (minutes); full
// additionally runs the complete §3.4 training protocol.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"snmatch/internal/cliutil"
	"snmatch/internal/experiments"
	"snmatch/internal/pipeline"
	"snmatch/internal/serve/snapshot"
)

func main() {
	scaleFlag := flag.String("scale", "medium", "experiment scale: quick, medium or full")
	skipNeural := flag.Bool("skip-neural", false, "skip the Table 4 neural experiment")
	outPath := flag.String("out", "", "also write the report to this file")
	snapPath := flag.String("snapshot", "", "SNS1 gallery snapshot: load it when the file exists (skipping gallery prep), otherwise save the prepared gallery there after prewarm")
	workers := cliutil.Workers(flag.CommandLine)
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick()
	case "medium":
		scale = experiments.Full()
		scale.NYUPerClassCap = 100
		scale.TrainPairs = 800
		scale.NXCorrEpochs = 8
		scale.NXCorrInput = 16
		scale.ImageSize = 64
	case "full":
		scale = experiments.Full()
	default:
		log.Fatalf("unknown scale %q", *scaleFlag)
	}
	scale.Workers = cliutil.ResolveWorkers(*workers)

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	start := time.Now()
	fmt.Fprintf(out, "snmatch experiment suite — scale %q\n", *scaleFlag)

	// A snapshot replaces the cold-start gallery preparation: it is
	// loaded before the suite is assembled so the gallery's
	// preprocessing pass is skipped entirely, and its descriptor
	// indexes arrive prebuilt for the Table 3/9 sweeps. The provenance
	// check pins the snapshot to this scale's render parameters — a
	// gallery from another size or seed would silently change every
	// table.
	snapMeta := snapshot.Meta{Dataset: "sns1", Size: scale.ImageSize, Seed: scale.Seed}
	var snapGallery *pipeline.Gallery
	if *snapPath != "" {
		snap, err := cliutil.LoadSnapshotIfExists(*snapPath, snapMeta)
		if err != nil {
			log.Fatal(err)
		}
		if snap != nil {
			snapGallery = snap.Gallery
			fmt.Fprintf(out, "loaded prepared SNS1 gallery %q from %s (no re-extraction)\n", snap.Name, *snapPath)
		}
	}
	fmt.Fprintf(out, "building datasets...\n")
	suite := experiments.NewSuiteWithGallery(scale, snapGallery)

	sectionStart := time.Now()
	section := func(title string) {
		if title != "Table 1: dataset statistics" {
			fmt.Fprintf(out, "(section took %s)\n", time.Since(sectionStart).Round(time.Millisecond))
		}
		sectionStart = time.Now()
		fmt.Fprintf(out, "\n================ %s ================\n", title)
	}

	section("Table 1: dataset statistics")
	fmt.Fprint(out, suite.Table1())

	section("Table 2: cumulative accuracy, exploratory trials")
	t2 := suite.Table2()
	fmt.Fprint(out, experiments.FormatTable2(t2))

	section("Table 3: descriptor cumulative accuracy (SNS2 v. SNS1, ratio 0.5)")
	fmt.Fprintln(out, "prewarming descriptor indexes...")
	suite.PrewarmDescriptors()
	if *snapPath != "" && snapGallery == nil {
		if err := cliutil.SaveSnapshot(*snapPath, snapMeta, suite.GallerySNS1); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "saved prepared SNS1 gallery to %s for future runs\n", *snapPath)
	}
	t3 := suite.Table3(0.5)
	fmt.Fprint(out, experiments.FormatTable3(t3))

	section("Table 5: class-wise shape-only (NYU v. SNS1)")
	fmt.Fprint(out, experiments.FormatClasswise("", []string{
		"Baseline", "Shape only L1", "Shape only L2", "Shape only L3",
	}, suite.Table5()))

	section("Table 6: class-wise colour-only (NYU v. SNS1)")
	fmt.Fprint(out, experiments.FormatClasswise("", []string{
		"Color only Correlation", "Color only Chi-square",
		"Color only Intersection", "Color only Hellinger",
	}, suite.Table6()))

	section("Table 7: class-wise hybrid (NYU v. SNS1, L3+Hellinger a=0.3 b=0.7)")
	fmt.Fprint(out, experiments.FormatClasswise("", []string{
		"Shape+Color (weighted sum)", "Shape+Color (micro-avg)", "Shape+Color (macro-avg)",
	}, suite.Table7()))

	section("Table 8: class-wise hybrid (SNS2 v. SNS1)")
	fmt.Fprint(out, experiments.FormatClasswise("", []string{
		"Shape+Color (weighted sum)", "Shape+Color (micro-avg)", "Shape+Color (macro-avg)",
	}, suite.Table8()))

	section("Table 9: class-wise descriptors (SNS2 v. SNS1, ratio 0.5)")
	fmt.Fprint(out, experiments.FormatClasswise("", []string{
		"SIFT", "SURF", "ORB",
	}, t3.Classwise))

	section("Scene robustness: detect-then-classify v. occlusion/noise/object count")
	fmt.Fprint(out, experiments.FormatSceneRobustness(
		suite.SceneRobustness(pipeline.DefaultHybrid(pipeline.WeightedSum), experiments.DefaultSceneAxes())))

	if !*skipNeural {
		section("Table 4: Normalized-X-Corr pair classification")
		fmt.Fprintln(out, "training...")
		t4, err := suite.Table4(out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprint(out, experiments.FormatTable4(t4))
	}

	fmt.Fprintf(out, "\ncompleted in %s\n", time.Since(start).Round(time.Second))
}
