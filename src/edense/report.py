"""Check findings and batch reports shared by the verifier and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """One named check with its outcome; failures carry a witness."""

    name: str
    passed: bool
    witness: str | None = None

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.witness}]" if self.witness else ""
        return f"[{mark}] {self.name}{tail}"


@dataclass
class Report:
    """Outcome of one CLI command: echo, findings, derived exit status."""

    command: str
    findings: list[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings) -> None:
        self.findings.extend(findings)

    def info(self, name: str, value) -> None:
        self.findings.append(Finding(name, True, str(value)))

    @property
    def ok(self) -> bool:
        return all(f.passed for f in self.findings)

    @property
    def exit_status(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        lines = [f"# {self.command}"]
        lines += [f.line() for f in self.findings]
        lines.append(f"# {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """The report as ``json.dumps(payload, indent=2)`` writes it: each
        finding is name, pass (a bool) and, when it has one, witness.  The
        fixed shape is written here and each string goes through
        ``json.dumps``, which encodes it in C, where ``indent`` would take
        the pure-Python encoder for the whole payload.
        """
        dumps = json.dumps
        items = []
        for f in self.findings:
            passed = "true" if f.passed else "false"
            item = f'    {{\n      "name": {dumps(f.name)},\n      "pass": {passed}'
            if f.witness is not None:
                item += f',\n      "witness": {dumps(f.witness)}'
            items.append(item + "\n    }")
        findings = "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
        return (
            f'{{\n  "command": {dumps(self.command)},\n  "findings": {findings},\n'
            f'  "ok": {"true" if self.ok else "false"}\n}}'
        )
