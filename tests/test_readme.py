import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("counter-example:") or out.startswith("VerdictKind.")


def test_ci_runs_the_readme_commands_verbatim():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    commands = [line.strip() for line in workflow.splitlines() if line.strip().startswith("achilles ")]
    assert len(commands) == 5
    readme_lines = README.read_text(encoding="utf-8").splitlines()
    for command in commands:
        assert command in readme_lines, command
