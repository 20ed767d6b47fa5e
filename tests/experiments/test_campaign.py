"""Tests for the full-evaluation campaign runner and its artifact registry."""

import contextlib
import io

import pytest

from repro.cli import main
from repro.experiments import ARTIFACTS, run_campaign


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One tiny campaign through the CLI, shared by this module."""
    out = tmp_path_factory.mktemp("campaign")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["campaign", "--seed", "1", "--out", str(out)])
    assert code == 0
    return out, stdout.getvalue()


@pytest.fixture(scope="module")
def results():
    """The in-memory results of a campaign that writes nothing."""
    return run_campaign(output_dir=None, size="smoke", seed=2, verbose=False)


class TestCampaign:
    def test_all_artifacts_produced(self, campaign):
        out, _ = campaign
        for name in ARTIFACTS:
            assert (out / f"{name}.txt").exists(), f"missing {name}.txt"

    def test_csv_series_written(self, campaign):
        out, _ = campaign
        # ROC curves and table2 are text-only; the figures get CSVs.
        for name, artifact in ARTIFACTS.items():
            csv_path = out / f"{name}.csv"
            assert csv_path.exists() == artifact.csv, name
            if artifact.csv:
                header = csv_path.read_text().splitlines()[0]
                assert header == "panel,method,x,value"

    def test_fig4_artifact_contains_all_methods(self, campaign):
        out, _ = campaign
        text = (out / "fig4.txt").read_text()
        for method in ("LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA"):
            assert method in text

    def test_table2_artifact_has_paper_reference(self, campaign):
        out, _ = campaign
        text = (out / "table2.txt").read_text()
        assert "/" in text  # measured/paper format
        assert "eps=2, w=40" in text

    def test_elapsed_recorded(self, results):
        assert results["elapsed_seconds"] > 0

    def test_no_output_dir_is_fine(self, results):
        assert set(ARTIFACTS) <= set(results)


class TestCampaignCLI:
    def test_cli_campaign(self, campaign):
        out, stdout = campaign
        assert "campaign finished" in stdout
        assert f"artifacts written to {out}" in stdout
        for name in ARTIFACTS:
            assert f"== {name} ==" in stdout

    @pytest.mark.parametrize(
        "figure,panels",
        [
            ("fig6", ("fig6_population", "fig6_fluctuation")),
            ("fig8", ("fig8",)),
        ],
        ids=["fig6", "fig8"],
    )
    def test_figure_matches_campaign_artifact(
        self, campaign, capsys, figure, panels
    ):
        """``repro figure`` runs the campaign's grid at the same size and
        seed, so it prints the campaign's text, panels blank-line apart."""
        out, _ = campaign
        assert main(["figure", figure, "--seed", "1"]) == 0
        expected = "\n".join(
            (out / f"{name}.txt").read_text() for name in panels
        )
        assert capsys.readouterr().out == expected
