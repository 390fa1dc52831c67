import contextlib
import gc
import json
import math
import os
import time
import tracemalloc

import pytest

from pbwpcn import AuctionConfig, make_views, run_auction, run_auction_protocol, run_coop_protocol
from pbwpcn.cli import main
from pbwpcn.experiments import load_paper_instance

from oracles import jsonl


class TestPaperInstance:
    def test_check_passes(self, capsys):
        assert main(["paper-instance", "--check"]) == 0
        out = capsys.readouterr().out
        assert "check: PASS" in out

    def test_prints_constants(self, capsys):
        assert main(["paper-instance"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "E_lim" in out and "E_opt" in out


class TestCoop:
    def test_budget_one(self, capsys):
        assert main(["coop", "--ebtot", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "nu" in out
        sum_line = next(l for l in out.splitlines() if l.startswith("sum E*"))
        assert float(sum_line.split(":")[1]) == pytest.approx(1.0, abs=1e-9)


class TestAuction:
    def test_default_run(self, capsys, tmp_path):
        assert main(["auction", "--ebtot", "1.0", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "rounds used" in out
        transcript = (tmp_path / "auction_transcript.jsonl").read_text()
        rows = [json.loads(line) for line in transcript.splitlines()]
        assert rows[0]["round"] == 0
        assert rows[-1].get("concluded") is True

    def test_custom_ladder(self, capsys):
        assert main(["auction", "--ebtot", "1.0", "--delta", "0.05", "--mu0", "0.01"]) == 0


class TestProtocol:
    def test_coop_transcript_to_stdout(self, capsys):
        assert main(["protocol", "--which", "coop", "--ebtot", "1.0"]) == 0
        out = capsys.readouterr().out
        kinds = {
            json.loads(line)["kind"]
            for line in out.splitlines()
            if line.startswith("{")
        }
        assert {"AlphaReport", "PriceAnnounce", "Bid", "FinalAllocation"} <= kinds

    def test_auction_to_file(self, capsys, tmp_path):
        rc = main(
            ["protocol", "--which", "auction", "--ebtot", "1.0", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "protocol_auction.jsonl").exists()


class TestStreamedTranscripts:
    @pytest.mark.parametrize("which", ["coop", "auction"])
    def test_stdout_and_file_hold_the_bus_transcript(self, capsys, tmp_path, which):
        params, channels = load_paper_instance()
        if which == "coop":
            _, bus = run_coop_protocol(*make_views(params, channels))
        else:
            _, bus = run_auction_protocol(*make_views(params, channels), AuctionConfig())
        expected = jsonl(m.to_record() for m in bus.messages()) + "\n"
        assert main(["protocol", "--which", which]) == 0
        assert capsys.readouterr().out.endswith(expected)
        assert main(["protocol", "--which", which, "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"protocol_{which}.jsonl").read_text() == expected

    @pytest.mark.parametrize(
        "argv", [["protocol", "--which", "auction"], ["auction"]], ids=["protocol", "auction"]
    )
    def test_peak_memory_per_round(self, tmp_path, argv):
        # lines go out one at a time: the peak stays near the walk's own packed
        # log (about 75 bytes per round), not the whole text or message list
        params, channels = load_paper_instance()
        rounds = run_auction(params, channels, AuctionConfig(step=1e-4)).rounds_used
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert main(argv + ["--delta", "1e-4", "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / rounds <= 150.0


class TestSweep:
    def test_runs_and_writes(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 3, "e_b_tot_grid": [0.5, 1.0]}))
        rc = main(["--config", str(cfg), "sweep", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "fig5_means.csv").exists()
        assert (tmp_path / "out" / "fig6_welfare.csv").exists()
        assert (tmp_path / "out" / "fig3_convergence.csv").exists()

    def test_seed_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 3, "e_b_tot_grid": [1.0]}))
        for sub in ("a", "b"):
            main(
                ["--config", str(cfg), "sweep", "--seed", "5",
                 "--out", str(tmp_path / sub)]
            )
        assert (tmp_path / "a" / "fig6_welfare.csv").read_bytes() == (
            tmp_path / "b" / "fig6_welfare.csv"
        ).read_bytes()

    def test_instance_figures_follow_the_config_ladder(self, capsys, tmp_path):
        csvs = {}
        for name, config in (("default", {}), ("coarse", {"price_step": 0.05})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"trials": 2, "e_b_tot_grid": [1.0], **config}))
            out = tmp_path / name
            assert main(["--config", str(cfg), "sweep", "--out", str(out)]) == 0
            csvs[name] = {
                f: (out / f).read_text()
                for f in ("fig3_convergence.csv", "fig4_energy.csv", "fig4_time.csv")
            }
        for f, text in csvs["coarse"].items():
            assert text != csvs["default"][f], f
        auction_rows = [
            line for line in csvs["coarse"]["fig3_convergence.csv"].splitlines()
            if line.startswith("auction,")
        ]
        prices = [float(line.split(",")[2]) for line in auction_rows]
        assert prices[1] - prices[0] == pytest.approx(0.05)

    def test_ladder_too_long_to_walk_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "price_step": 1e-9}))
        assert main(["--config", str(cfg), "sweep", "--out", str(out)]) == 2
        assert "ladder" in capsys.readouterr().err
        assert not out.exists()


class TestConfigPrecedence:
    # a config file's value reaches the command unless the matching flag is given
    CONFIG = {"e_b_tot": 0.5, "reserve_price": 0.02, "price_step": 0.03}

    def run(self, tmp_path, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        assert main(["--config", str(cfg), *argv]) == 0

    @pytest.mark.parametrize("flags, budget", [([], 0.5), (["--ebtot", "0.7"], 0.7)])
    def test_coop(self, capsys, tmp_path, flags, budget):
        self.run(tmp_path, ["coop", *flags])
        out = capsys.readouterr().out
        sum_line = next(l for l in out.splitlines() if l.startswith("sum E*"))
        assert float(sum_line.split(":")[1]) == pytest.approx(budget, abs=1e-9)

    @pytest.mark.parametrize("command", [["auction"], ["protocol", "--which", "auction"]])
    @pytest.mark.parametrize(
        "flags, budget, mu0, step",
        [
            ([], 0.5, 0.02, 0.03),
            (["--ebtot", "0.7"], 0.7, 0.02, 0.03),
            (["--mu0", "0.004"], 0.5, 0.004, 0.03),
            (["--delta", "0.05"], 0.5, 0.02, 0.05),
        ],
    )
    def test_auction(self, capsys, tmp_path, command, flags, budget, mu0, step):
        self.run(tmp_path, [*command, *flags, "--out", str(tmp_path)])
        if command == ["auction"]:
            text = (tmp_path / "auction_transcript.jsonl").read_text()
            rows = [json.loads(line) for line in text.splitlines()]
            prices = [row["price"] for row in rows]
            allocated = rows[-1]["clinch_cum"]
        else:
            text = (tmp_path / "protocol_auction.jsonl").read_text()
            msgs = [json.loads(line) for line in text.splitlines()]
            prices = [m["payload"] for m in msgs if m["kind"] == "PriceAnnounce"]
            prices = list(dict.fromkeys(prices))
            allocated = [m["payload"] for m in msgs if m["kind"] == "FinalAllocation"]
        assert prices[:2] == [mu0, mu0 + step]
        assert math.fsum(allocated) == pytest.approx(budget, rel=1e-12)


class TestLadderTooLong:
    # a step of 1e-9 gives a ladder of about 5.7e9 rounds on the paper instance
    @pytest.mark.parametrize(
        "argv",
        [
            ["auction", "--delta", "1e-9"],
            ["protocol", "--which", "auction", "--delta", "1e-9"],
        ],
    )
    def test_rejected_up_front(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(argv + ["--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ladder" in captured.err

    def test_past_2_53_rounds(self, capsys):
        # no round count is printed: past 2**53 rounds the index is not exact
        assert main(["auction", "--delta", "1e-300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than 2**53 rounds" in captured.err


class TestConfigErrors:
    def test_missing_config_file(self, capsys, tmp_path):
        rc = main(["--config", str(tmp_path / "nope.json"), "coop"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_config_path_is_a_directory(self, capsys, tmp_path):
        assert main(["--config", str(tmp_path), "coop"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: ") and str(tmp_path) in err[0]

    def test_invalid_json(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["--config", str(cfg), "coop"]) == 2

    def test_unknown_field(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"banana": 1}))
        assert main(["--config", str(cfg), "coop"]) == 2

    def test_protocol_is_not_a_config_field(self, capsys, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"protocol": "coop"}))
        assert main(["--config", str(cfg), "sweep", "--out", str(out)]) == 2
        assert "protocol" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_type(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"trials": "many"}))
        assert main(["--config", str(cfg), "sweep"]) == 2

    @pytest.mark.parametrize(
        "config, field",
        [
            ('{"d_ap_src": 0}', "d_ap_src"),
            ('{"d_pb_src": -10, "pathloss_zeta": 2.5}', "d_pb_src"),
            ('{"d_ap_src": NaN}', "d_ap_src"),
            ('{"e_b_tot_grid": [NaN]}', "e_b_tot_grid"),
            # an empty grid would write figure CSVs of headers alone
            ('{"e_b_tot_grid": []}', "e_b_tot_grid"),
            ('{"trials": true}', "trials"),
            # finite path losses whose pairs' x_const is not below 1e30
            ('{"d_ap_src": 1e-150}', "x_const"),
            ('{"d_pb_src": 1e-150}', "x_const"),
            ('{"d_pb_src": 1e-60}', "x_const"),
        ],
    )
    def test_bad_sweep_config(self, capsys, tmp_path, config, field):
        out = tmp_path / "out"
        cfg = tmp_path / "bad.json"
        cfg.write_text(config)
        assert main(["--config", str(cfg), "sweep", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, field",
        [
            ('{"d_ap_src": 1e-200}', "d_ap_src"),  # path loss overflows
            ('{"d_pb_src": 1e-200}', "d_pb_src"),
            ('{"d_ap_src": 1e200}', "d_ap_src"),  # path loss underflows to 0
        ],
        ids=["ap-near", "pb-near", "ap-far"],
    )
    def test_distance_without_finite_gain(self, capsys, tmp_path, config, field):
        out = tmp_path / "out"
        cfg = tmp_path / "bad.json"
        cfg.write_text(config)
        assert main(["--config", str(cfg), "sweep", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err and "path loss" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_budget(self, capsys, value):
        assert main(["coop", "--ebtot", value]) == 2
        assert "e_b_tot" in capsys.readouterr().err

    def test_unknown_log_level(self, capsys, monkeypatch):
        monkeypatch.setenv("PBWPCN_LOG", "bogus")
        assert main(["coop"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and "PBWPCN_LOG" in captured.err

    @pytest.mark.parametrize("level", ["debug", "Info", "WARN", "ERROR"])
    def test_known_log_level(self, capsys, monkeypatch, level):
        monkeypatch.setenv("PBWPCN_LOG", level)
        assert main(["paper-instance"]) == 0

    def test_negative_seed_flag(self, capsys, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--trials", "2", "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "seed" in err
        assert not out.exists()

    def test_negative_seed_in_config(self, capsys, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"trials": 2, "seed": -1}))
        assert main(["--config", str(cfg), "sweep", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "seed" in err
        assert not out.exists()

    def test_no_outputs_on_config_error(self, capsys, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"trials": -3}))
        rc = main(["--config", str(cfg), "sweep", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, out, blocker",
        [
            (["auction"], "file/x", "file"),
            (["protocol", "--which", "auction"], "file/x", "file"),
            (["sweep", "--trials", "2"], "file/", "file"),
            (["auction"], "out", "out/auction_transcript.jsonl/"),
        ],
        ids=["auction", "protocol", "sweep", "auction-output-is-a-directory"],
    )
    def test_unwritable_output_path(self, capsys, tmp_path, argv, out, blocker):
        # a file where the output directory should be, or a directory where
        # the output file should be: a configuration error on one stderr line
        # that names the path, not a traceback
        blocked = tmp_path / blocker
        if blocker.endswith("/"):
            blocked.mkdir(parents=True)
        else:
            blocked.write_text("")
        out = os.path.join(tmp_path, out)
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: cannot write ") and out in err[0]
        if blocked.is_dir():
            assert not any(blocked.iterdir()) and os.listdir(out) == [blocked.name]
        else:
            assert blocked.read_text() == ""
