"""End-to-end runs of the command-line pipelines.

Everything goes through main() in-process so exit codes and artifacts
can be checked exactly.
"""

import json

import numpy as np
import pytest

from distparse import distance as dist
from distparse import predictor as pr
from distparse import treebank as tb
from distparse.cli import main

from conftest import DATA_DIR, simulated_ensemble

GRAMMAR = str(DATA_DIR / "toy_grammar.cfg")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small generated corpus plus a model trained on it."""
    ws = tmp_path_factory.mktemp("cli")
    rc = main(["gen-synthetic", "--grammar", GRAMMAR, "--n", "30",
               "--seed", "5", "--max-len", "10",
               "--out", str(ws / "sents.txt"),
               "--trees-out", str(ws / "gold.trees"),
               "--binarize", "right"])
    assert rc == 0
    rc = main(["train", "--gold", str(ws / "gold.trees"),
               "--out", str(ws / "model.npz"),
               "--epochs", "8", "--lr", "0.2", "--seed", "1",
               "--hidden", "24", "--embed", "12", "--l1", "1"])
    assert rc == 0
    return ws


@pytest.fixture(scope="module")
def ensemble_dir(tmp_path_factory, workspace):
    gold = list(tb.load_trees(workspace / "gold.trees"))
    rows = simulated_ensemble(gold, 5, rate=0.25, seed=6)
    ens = tmp_path_factory.mktemp("ens")
    for k in range(5):
        bank = tb.Treebank(tuple(row[k] for row in rows))
        tb.dump_trees(bank, ens / f"member_{k}.trees")
    return ens


# ---------------------------------------------------------------------------
# Exit codes


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error():
    assert main(["convert", "--mode", "tree2dg"]) == 1


def test_missing_input_file_is_data_error(tmp_path):
    rc = main(["convert", "--mode", "tree2dg",
               "--in", str(tmp_path / "absent.trees"),
               "--out", str(tmp_path / "o.jsonl")])
    assert rc == 2


def test_malformed_tree_file_is_data_error(tmp_path):
    bad = tmp_path / "bad.trees"
    bad.write_text("((a b) (c\n")
    rc = main(["convert", "--mode", "tree2dg", "--in", str(bad),
               "--out", str(tmp_path / "o.jsonl")])
    assert rc == 2


def test_diverging_training_is_internal_error(workspace, tmp_path):
    with np.errstate(invalid="ignore"):
        rc = main(["train", "--gold", str(workspace / "gold.trees"),
                   "--out", str(tmp_path / "m.npz"),
                   "--epochs", "2", "--lr", "inf", "--hidden", "8",
                   "--embed", "4", "--l1", "1"])
    assert rc == 3


# ---------------------------------------------------------------------------
# convert


def test_convert_emits_records_with_both_encodings(workspace, tmp_path):
    recs = tmp_path / "recs.jsonl"
    rc = main(["convert", "--mode", "tree2dg",
               "--in", str(workspace / "gold.trees"), "--out", str(recs)])
    assert rc == 0
    loaded = dist.load_records(recs)
    assert len(loaded) == 30
    for r in loaded:
        assert len(r.dl) == len(r.tokens)
        assert len(r.dg) == len(r.tokens) - 1


def test_convert_round_trip_restores_trees(workspace, tmp_path, capsys):
    recs = tmp_path / "recs.jsonl"
    back = tmp_path / "back.trees"
    assert main(["convert", "--mode", "tree2dg",
                 "--in", str(workspace / "gold.trees"),
                 "--out", str(recs)]) == 0
    assert main(["convert", "--mode", "dg2tree", "--in", str(recs),
                 "--out", str(back)]) == 0
    assert main(["eval", "--pred", str(back),
                 "--gold", str(workspace / "gold.trees")]) == 0
    out = capsys.readouterr().out
    assert "macro_f1=100.0000" in out


NAN_RECORD = '{"tokens": ["a", "b", "c"], "dl": [1, NaN, 2], "dg": [NaN, 1]}\n'


@pytest.mark.parametrize("mode", ["dl2tree", "dg2tree"])
def test_convert_non_finite_record_is_data_error(tmp_path, capsys, mode):
    recs = tmp_path / "nan.jsonl"
    recs.write_text(NAN_RECORD)
    rc = main(["convert", "--mode", mode, "--in", str(recs),
               "--out", str(tmp_path / "o.trees")])
    assert rc == 2
    assert "line 1: distances must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o.trees").exists()


def test_train_non_finite_silver_is_data_error(workspace, tmp_path, capsys):
    recs = tmp_path / "silver.jsonl"
    recs.write_text('{"tokens": ["a", "b"], "dl": [1, 2], "dg": [1]}\n'
                    + NAN_RECORD.replace("NaN", "Infinity"))
    rc = main(["train", "--gold", str(workspace / "gold.trees"),
               "--silver", str(recs), "--out", str(tmp_path / "m.npz"),
               "--epochs", "1", "--hidden", "8", "--embed", "4",
               "--l1", "1"])
    assert rc == 2
    assert "line 2: distances must be finite" in capsys.readouterr().err


def test_convert_writes_run_json_sidecar(workspace, tmp_path):
    out = tmp_path / "r.jsonl"
    assert main(["convert", "--mode", "tree2dl",
                 "--in", str(workspace / "gold.trees"),
                 "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "r.jsonl.run.json").read_text())
    assert payload["command"] == "convert"
    assert payload["options"]["mode"] == "tree2dl"
    assert payload["options"]["max_depth"] == 100
    assert payload["tool"] == "distparse"


# ---------------------------------------------------------------------------
# eval


def test_eval_identical_files_scores_100(tmp_path, capsys):
    gold = tmp_path / "g.trees"
    bank = tb.Treebank(tuple(
        tb.binarize(t) for t in tb.load_trees(DATA_DIR / "sample.trees")))
    tb.dump_trees(bank, gold)
    assert main(["eval", "--pred", str(gold), "--gold", str(gold)]) == 0
    out = capsys.readouterr().out
    assert "macro_f1=100.0000" in out
    assert f"sentences={len(bank)}" in out


def test_eval_csv_report(workspace, tmp_path):
    csv_path = tmp_path / "buckets.csv"
    assert main(["eval", "--pred", str(workspace / "gold.trees"),
                 "--gold", str(workspace / "gold.trees"),
                 "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "range,count,avg_f1"
    assert len(lines) == 6  # header + the five length buckets


def test_eval_misaligned_files_is_data_error(workspace, tmp_path):
    short = tmp_path / "short.trees"
    bank = tb.load_trees(workspace / "gold.trees")
    tb.dump_trees(tb.Treebank(bank.sentences[:5]), short)
    rc = main(["eval", "--pred", str(short),
               "--gold", str(workspace / "gold.trees")])
    assert rc == 2


def test_eval_jobs_flag_changes_nothing(workspace, capsys):
    args = ["eval", "--pred", str(workspace / "gold.trees"),
            "--gold", str(workspace / "gold.trees")]
    assert main(args) == 0
    seq = capsys.readouterr().out
    assert main(args + ["--jobs", "3"]) == 0
    par = capsys.readouterr().out
    assert seq == par


# ---------------------------------------------------------------------------
# train / parse


def test_train_writes_model_and_resolved_run_json(workspace):
    opts = json.loads((workspace / "model.npz.run.json").read_text())["options"]
    assert opts["epochs"] == 8
    assert opts["lr"] == 0.2
    assert opts["seed"] == 1
    # flags left unset are recorded at their resolved defaults
    assert opts["alpha"] == 0.5
    assert opts["batch_size"] == 16
    assert opts["ties"] == "left"


def test_parse_outputs_aligned_trees(workspace, tmp_path):
    out = tmp_path / "pred.trees"
    rc = main(["parse", "--model", str(workspace / "model.npz"),
               "--in", str(workspace / "sents.txt"), "--out", str(out)])
    assert rc == 0
    preds = tb.load_trees(out)
    sentences = [line.split() for line
                 in (workspace / "sents.txt").read_text().splitlines()]
    assert len(preds) == len(sentences)
    for t, s in zip(preds, sentences):
        assert tb.leaves(t) == s
        assert tb.is_binary(t)


def test_parse_jobs_preserve_input_order(workspace, tmp_path):
    one = tmp_path / "one.trees"
    four = tmp_path / "four.trees"
    base = ["parse", "--model", str(workspace / "model.npz"),
            "--in", str(workspace / "sents.txt")]
    assert main(base + ["--out", str(one), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(four), "--jobs", "4"]) == 0
    assert one.read_text() == four.read_text()


def test_train_config_file_layering(workspace, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("lr = 0.05\nepochs = 2\nhidden_dim = 8\nseed = 7\n")
    out = tmp_path / "m.npz"
    rc = main(["train", "--gold", str(workspace / "gold.trees"),
               "--out", str(out), "--config", str(cfg),
               "--epochs", "3", "--embed", "4", "--l1", "1"])
    assert rc == 0
    opts = json.loads((tmp_path / "m.npz.run.json").read_text())["options"]
    assert opts["epochs"] == 3     # explicit flag beats the file
    assert opts["lr"] == 0.05      # file beats the default
    assert opts["hidden"] == 8
    assert opts["seed"] == 7
    assert opts["alpha"] == 0.5    # untouched default


@pytest.mark.parametrize("line, message", [
    ("tie_policy = middle", "tie_policy must be 'left' or 'right'"),
    ("l1 = -2", "l1 must be at least 0"),
    ("batch_size = 0", "batch_size must be at least 1"),
    ("lr = nan", "lr must be positive"),
    ("lr = -0.5", "lr must be positive"),
    ("hidden_dim = 100000000", "more than the limit of"),
])
def test_train_config_file_bad_value_is_data_error(workspace, tmp_path,
                                                  capsys, line, message):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "m.npz"
    rc = main(["train", "--gold", str(workspace / "gold.trees"),
               "--out", str(out), "--config", str(cfg), "--epochs", "1"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


def test_train_determinism_across_runs(workspace, tmp_path):
    outs = []
    for name in ("a.npz", "b.npz"):
        out = tmp_path / name
        rc = main(["train", "--gold", str(workspace / "gold.trees"),
                   "--out", str(out), "--epochs", "3", "--lr", "0.1",
                   "--seed", "2", "--hidden", "8", "--embed", "4",
                   "--l1", "1"])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# selftrain


def test_selftrain_outputs_and_determinism(workspace, ensemble_dir,
                                           tmp_path):
    silvers = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        rc = main(["selftrain", "--unlabeled", str(workspace / "sents.txt"),
                   "--ensemble-dir", str(ensemble_dir),
                   "--gold", str(workspace / "gold.trees"),
                   "--gold-parses", str(workspace / "gold.trees"),
                   "--out-dir", str(out_dir),
                   "--nc", "5", "--mu", "0.6",
                   "--epochs", "4", "--lr", "0.1", "--seed", "3",
                   "--hidden", "8", "--embed", "4", "--l1", "1"])
        assert rc == 0
        for artifact in ("silver.jsonl", "model.npz", "agreement.csv",
                         "silver_stats.csv", "run.json"):
            assert (out_dir / artifact).exists(), artifact
        silvers.append((out_dir / "silver.jsonl").read_bytes())
    assert silvers[0] == silvers[1]
    assert (tmp_path / "run1" / "model.npz").read_bytes() == \
           (tmp_path / "run2" / "model.npz").read_bytes()
    agreement = (tmp_path / "run1" / "agreement.csv").read_text().splitlines()
    assert agreement[0] == "n_agree,count,avg_f1,avg_len,avg_depth"
    counts = [int(line.split(",")[1]) for line in agreement[1:]]
    assert sum(counts) == 30


def test_selftrain_silver_respects_threshold(workspace, ensemble_dir,
                                             tmp_path):
    out_dir = tmp_path / "st"
    rc = main(["selftrain", "--unlabeled", str(workspace / "sents.txt"),
               "--ensemble-dir", str(ensemble_dir),
               "--gold", str(workspace / "gold.trees"),
               "--out-dir", str(out_dir),
               "--nc", "5", "--mu", "0.6",
               "--epochs", "2", "--lr", "0.1", "--seed", "3",
               "--hidden", "8", "--embed", "4", "--l1", "1"])
    assert rc == 0
    records = dist.load_records(out_dir / "silver.jsonl")
    assert all(r.agreement >= 3 for r in records)  # ceil(0.6 * 5)


def test_selftrain_internal_members(workspace, tmp_path):
    out_dir = tmp_path / "sti"
    rc = main(["selftrain", "--unlabeled", str(workspace / "sents.txt"),
               "--internal-members", "2",
               "--gold", str(workspace / "gold.trees"),
               "--out-dir", str(out_dir), "--mu", "0.5",
               "--epochs", "2", "--lr", "0.1",
               "--hidden", "8", "--embed", "4", "--l1", "1"])
    assert rc == 0
    opts = json.loads((out_dir / "run.json").read_text())["options"]
    assert opts["internal_members"] == 2
    assert opts["seed"] == 0  # resolved default recorded


def test_selftrain_internal_without_gold_is_data_error(workspace, tmp_path):
    rc = main(["selftrain", "--unlabeled", str(workspace / "sents.txt"),
               "--internal-members", "2",
               "--out-dir", str(tmp_path / "x")])
    assert rc == 2


# ---------------------------------------------------------------------------
# analyze


def test_analyze_agreement_report(workspace, ensemble_dir, tmp_path):
    out = tmp_path / "agreement.csv"
    rc = main(["analyze", "--report", "agreement",
               "--ensemble-dir", str(ensemble_dir),
               "--unlabeled", str(workspace / "sents.txt"),
               "--gold", str(workspace / "gold.trees"),
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n_agree,count,avg_f1,avg_len,avg_depth"
    assert len(lines) == 6  # 5 members


@pytest.mark.parametrize("fault, message", [
    ("short", "member_2.trees: 29 parses for 30 sentences"),
    ("long", "member_2.trees: 31 parses for 30 sentences"),
    ("empty", "error: no trees in input"),
    # the fifth tree, after a blank line, is on physical line 6
    ("malformed", "error: line 6: unbalanced parentheses"),
])
def test_analyze_faulty_member_is_data_error(workspace, ensemble_dir,
                                             tmp_path, capsys, fault,
                                             message):
    ens = tmp_path / "ens"
    ens.mkdir()
    for k in range(5):
        text = (ensemble_dir / f"member_{k}.trees").read_text()
        lines = text.splitlines(keepends=True)
        if k == 2:
            if fault == "short":
                lines = lines[:-1]
            elif fault == "long":
                lines.append(lines[0])
            elif fault == "empty":
                lines = []
            else:
                lines[4] = lines[4].rstrip()[:-1] + "\n"
                lines.insert(1, "\n")
        (ens / f"member_{k}.trees").write_text("".join(lines))
    rc = main(["analyze", "--report", "agreement",
               "--ensemble-dir", str(ens),
               "--unlabeled", str(workspace / "sents.txt"),
               "--out", str(tmp_path / "agreement.csv")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_analyze_buckets_report(workspace, tmp_path):
    gold = tb.load_trees(workspace / "gold.trees")
    base = tmp_path / "base.trees"
    tb.dump_trees(tb.Treebank(tuple(
        tb.left_branching(tb.leaves(t)) for t in gold)), base)
    out = tmp_path / "buckets.csv"
    rc = main(["analyze", "--report", "buckets",
               "--baseline", str(base),
               "--selftrained", str(workspace / "gold.trees"),
               "--gold", str(workspace / "gold.trees"),
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "range,count,avg_f1,pct_improved"


def test_analyze_agreement_missing_inputs_is_usage_error(tmp_path):
    rc = main(["analyze", "--report", "agreement",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1


# ---------------------------------------------------------------------------
# gen-synthetic


def test_gen_deterministic_runs(tmp_path):
    files = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        rc = main(["gen-synthetic", "--grammar", GRAMMAR, "--n", "25",
                   "--seed", "9", "--out", str(out)])
        assert rc == 0
        files.append(out.read_text())
    assert files[0] == files[1]
    assert len(files[0].splitlines()) == 25


def test_gen_binarized_trees_output(tmp_path):
    trees_out = tmp_path / "t.trees"
    rc = main(["gen-synthetic", "--grammar", GRAMMAR, "--n", "10",
               "--seed", "3", "--out", str(tmp_path / "s.txt"),
               "--trees-out", str(trees_out), "--binarize", "right"])
    assert rc == 0
    for t in tb.load_trees(trees_out):
        assert tb.is_binary(t)


# ---------------------------------------------------------------------------
# Malformed and deep input


def test_lone_close_paren_is_data_error(tmp_path, capsys):
    bad = tmp_path / "paren.trees"
    bad.write_text(")\n")
    assert main(["eval", "--pred", str(bad), "--gold", str(bad)]) == 2
    assert "line 1: unbalanced parentheses" in capsys.readouterr().err


def test_nan_model_output_is_data_error(workspace, tmp_path, capsys):
    model = pr.DistancePredictor.load(workspace / "model.npz")
    for _, arr in model.params.blocks():
        arr.fill(np.nan)
    model.save(tmp_path / "nan.npz")
    assert main(["parse", "--model", str(tmp_path / "nan.npz"),
                 "--in", str(workspace / "sents.txt"),
                 "--out", str(tmp_path / "o.trees")]) == 2
    assert "cannot decode a NaN distance" in capsys.readouterr().err


DEEP = 5000


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    """A 5000-word right-branching tree line, its sentence and a
    left-branching tree over the same words."""
    d = tmp_path_factory.mktemp("deep")
    words = [f"w{i}" for i in range(DEEP)]
    line = tb.format_tree(tb.right_branching(words))
    (d / "right.trees").write_text(line + "\n")
    (d / "left.trees").write_text(tb.format_tree(tb.left_branching(words)) + "\n")
    (d / "sent.txt").write_text(" ".join(words) + "\n")
    return d, words, line


def test_deep_tree_eval_and_buckets(deep, tmp_path, capsys):
    d, _, _ = deep
    right = str(d / "right.trees")
    assert main(["eval", "--pred", right, "--gold", right]) == 0
    assert "macro_f1=100.0000" in capsys.readouterr().out
    out = tmp_path / "buckets.csv"
    assert main(["analyze", "--report", "buckets",
                 "--baseline", str(d / "left.trees"), "--selftrained", right,
                 "--gold", right, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == ">40,1,100.0000,100.0000"


def test_deep_tree_converts_and_round_trips(deep, tmp_path):
    d, _, line = deep
    records = tmp_path / "deep.jsonl"
    back = tmp_path / "back.trees"
    assert main(["convert", "--mode", "tree2dg", "--binarize", "none",
                 "--max-depth", "10000", "--in", str(d / "right.trees"),
                 "--out", str(records)]) == 0
    assert main(["convert", "--mode", "dg2tree", "--in", str(records),
                 "--out", str(back)]) == 0
    assert back.read_text() == line + "\n"


def test_deep_tree_over_default_depth_is_data_error(deep, tmp_path, capsys):
    d, _, _ = deep
    message = f"tree depth {DEEP - 1} >= max_depth 100"
    assert main(["convert", "--mode", "tree2dl", "--in", str(d / "right.trees"),
                 "--out", str(tmp_path / "o.jsonl")]) == 2
    assert message in capsys.readouterr().err
    assert main(["train", "--gold", str(d / "right.trees"),
                 "--out", str(tmp_path / "m.npz"), "--epochs", "1",
                 "--hidden", "4", "--embed", "2", "--l1", "1"]) == 2
    assert message in capsys.readouterr().err


def test_deep_sentence_parses(deep, workspace, tmp_path):
    d, words, _ = deep
    out = tmp_path / "deep.trees"
    assert main(["parse", "--model", str(workspace / "model.npz"),
                 "--in", str(d / "sent.txt"), "--out", str(out)]) == 0
    words_read, node_spans, binary = tb.scan_tree(out.read_text())
    assert words_read == words and binary and len(node_spans) == DEEP - 1


def test_gen_right_recursive_grammar_at_length_5000(tmp_path):
    grammar = tmp_path / "deep.cfg"
    grammar.write_text("S -> a S : 1000\nS -> a : 1\n")
    sents, trees = tmp_path / "s.txt", tmp_path / "t.trees"
    assert main(["gen-synthetic", "--grammar", str(grammar), "--n", "2",
                 "--seed", "1", "--max-len", str(DEEP), "--out", str(sents),
                 "--trees-out", str(trees), "--binarize", "right"]) == 0
    lengths = [len(s.split()) for s in sents.read_text().splitlines()]
    assert len(lengths) == 2 and max(lengths) > 1000
    for line, n in zip(trees.read_text().splitlines(), lengths):
        words, node_spans, binary = tb.scan_tree(line)
        assert len(words) == n and binary and len(node_spans) == n - 1
