"""The env-var registry and the doc tables generated from it."""

import os
import re

import pytest

from repro import envvars

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), ".."))

#: Docs that embed generated envvars tables.
DOCS = ("README.md", "docs/performance.md", "docs/robustness.md",
        "docs/observability.md")

#: A complete variable name: prefixes such as ``REPRO_SERVE_*`` do not
#: match, because a name may not end in ``_`` or run into one.
_NAME = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b")


def _sources(*roots):
    """(path, text) of every ``.py`` file under the given repo dirs."""
    for root in roots:
        for dirpath, _, files in os.walk(os.path.join(REPO_ROOT, root)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        yield path, fh.read()


class TestRegistry:
    def test_names_unique_and_prefixed(self):
        names = [v.name for v in envvars.REGISTRY]
        assert len(names) == len(set(names))
        assert all(n.startswith("REPRO_") for n in names)

    def test_groups_valid(self):
        assert {v.group for v in envvars.REGISTRY} \
            <= set(envvars.GROUP_ORDER)

    def test_by_group_filters(self):
        robustness = envvars.by_group("robustness")
        assert {v.name for v in robustness} == {
            "REPRO_CHAOS", "REPRO_STRICT", "REPRO_STEP_BUDGET",
            "REPRO_SHARD_TIMEOUT"}

    def test_table_renders_every_variable(self):
        table = envvars.markdown_table()
        for var in envvars.REGISTRY:
            assert f"`{var.name}`" in table


class TestRegistryInUse:
    """The registry and the code agree in both directions, so a switch
    cannot outlive its reader nor be read without being documented."""

    def test_every_registered_name_is_read(self):
        registry = os.path.join(REPO_ROOT, "src", "repro", "envvars.py")
        texts = [text for path, text in _sources("src/repro",
                                                 "benchmarks")
                 if path != registry]
        unread = [v.name for v in envvars.REGISTRY
                  if not any(f'"{v.name}"' in t or f"'{v.name}'" in t
                             for t in texts)]
        assert unread == [], (
            f"registered but read nowhere under src/repro or "
            f"benchmarks: {unread}")

    def test_every_name_in_the_source_is_registered(self):
        registered = {v.name for v in envvars.REGISTRY}
        stray = sorted({(os.path.relpath(path, REPO_ROOT), name)
                        for path, text in _sources("src/repro")
                        for name in _NAME.findall(text)
                        if name not in registered})
        assert stray == [], f"unregistered REPRO_* names: {stray}"


class TestDocsAgree:
    """Acceptance: a single registry, docs generated from it."""

    @pytest.mark.parametrize("doc", DOCS)
    def test_doc_blocks_match_registry(self, doc):
        path = os.path.join(REPO_ROOT, doc)
        with open(path) as fh:
            text = fh.read()
        blocks = envvars.doc_blocks(text)
        assert blocks, f"{doc} has no envvars marker block"
        for block in blocks:
            assert block["body"] == block["expected"], (
                f"{doc} env-var table is stale: regenerate with "
                f"'python -m repro.envvars --update {doc}'")

    def test_update_doc_is_idempotent_fixpoint(self):
        path = os.path.join(REPO_ROOT, "README.md")
        with open(path) as fh:
            text = fh.read()
        assert envvars.update_doc(text) == text

    def test_update_doc_rewrites_stale_block(self):
        stale = ("before\n<!-- envvars:begin group=performance -->\n"
                 "| old | junk |\n<!-- envvars:end -->\nafter")
        updated = envvars.update_doc(stale)
        assert "REPRO_NO_FASTPATH" in updated
        assert "| old | junk |" not in updated
        assert updated.startswith("before\n")
        assert updated.endswith("\nafter")


class TestCli:
    def test_envvars_command(self, capsys):
        from repro.cli import main
        assert main(["envvars", "--group", "observability"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_WINDOW" in out
        assert "REPRO_SCALE" not in out

    def test_envvars_json(self, capsys):
        import json
        from repro.cli import main
        assert main(["envvars", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(v["name"] == "REPRO_CHAOS" for v in doc)
