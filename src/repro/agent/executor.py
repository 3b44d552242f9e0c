"""Task execution: the agent's plan-act-observe loop (Fig. 4, boxes #5-#7).

For every requirement list the executor runs the standard pipeline
(generate -> extend -> legalize): the list's ``count`` base topologies are
generated in one tool call — one batched trajectory — and each pattern is
then extended and legalized on its own.  When legalization fails it does
*not* hard-code a recovery: it formats the failure log as an observation,
asks the LLM backend for a ReAct-style decision (Thought / Action / Action
Input) and dispatches whatever tool the model picks — modification of the
failed region, regeneration from a fresh seed, or dropping the case.  This
is the mistake-processing loop Section 4.2 demonstrates.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.agent.backend import LLMBackend, Message
from repro.agent.documents import WorkHistory
from repro.agent.requirements import RequirementList
from repro.agent.tools import AgentTools, ToolResult


@dataclass
class ReActStep:
    """One parsed LLM decision."""

    thought: str
    action: str
    action_input: dict
    raw: str


def parse_react(text: str) -> ReActStep:
    """Parse a Thought/Action/Action Input block.

    Tolerant of surrounding prose; ``Action Input`` may be a JSON object or
    the paper's loose ``"key": value`` comma list.
    """
    thought_match = re.search(r"Thought:\s*(.*?)(?:\n|$)", text, re.S)
    action_match = re.search(r"Action:\s*([\w_]+)", text)
    input_match = re.search(r"Action Input:\s*(\{.*\}|[^\n]*)", text, re.S)
    if not action_match:
        raise ValueError(f"no Action found in LLM reply: {text[:200]!r}")
    raw_input = (input_match.group(1).strip() if input_match else "") or "{}"
    braced = raw_input if raw_input.startswith("{") else "{" + raw_input + "}"
    try:
        action_input = json.loads(braced)
    except json.JSONDecodeError:
        action_input = _loose_parse(raw_input)
    return ReActStep(
        thought=(thought_match.group(1).strip() if thought_match else ""),
        action=action_match.group(1),
        action_input=action_input,
        raw=text,
    )


def _loose_parse(text: str) -> dict:
    """Fallback parser for the paper's loose key:value comma syntax."""
    out = {}
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    for key, value in re.findall(
        r'"(\w+)"\s*:\s*("[^"]*"|\$\{[^}]*\}|[\w\.\-/]+)', text
    ):
        value = value.strip('"')
        if re.fullmatch(r"-?\d+", value):
            out[key] = int(value)
        elif re.fullmatch(r"-?\d+\.\d*", value):
            out[key] = float(value)
        else:
            out[key] = value
    return out


@dataclass
class SubTaskReport:
    """Execution statistics for one requirement list."""

    requirement: RequirementList
    produced: int = 0
    dropped: int = 0
    modifications: int = 0
    regenerations: int = 0
    tool_calls: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    decisions: List[ReActStep] = field(default_factory=list)

    @property
    def fulfilled(self) -> bool:
        return self.produced >= self.requirement.count

    def summary(self) -> str:
        req = self.requirement
        return (
            f"subtask {req.subtask_id} [{req.style} "
            f"{req.topology_size[0]}x{req.topology_size[1]} x{req.count}]: "
            f"produced {self.produced}, dropped {self.dropped}, "
            f"{self.modifications} modification(s), "
            f"{self.regenerations} regeneration(s), "
            f"{self.tool_calls} tool call(s) in {self.elapsed_seconds:.1f}s"
        )


class TaskExecutor:
    """Drives tools against one requirement list with LLM failure handling."""

    def __init__(
        self,
        tools: AgentTools,
        backend: LLMBackend,
        history: Optional[WorkHistory] = None,
        max_retries: int = 2,
    ):
        self.tools = tools
        self.backend = backend
        self.history = history or WorkHistory()
        self.max_retries = max_retries

    def execute(self, requirement: RequirementList) -> SubTaskReport:
        """Produce ``requirement.count`` legal patterns (or drop failures)."""
        report = SubTaskReport(requirement=requirement)
        start = time.perf_counter()
        calls_before = len(self.tools.call_log)
        bases: List[str] = []
        for index in range(requirement.count):
            if (
                requirement.time_limit is not None
                and time.perf_counter() - start > requirement.time_limit
            ):
                # Advanced-part Time Limitation: stop cleanly, report what
                # was produced; the remaining count stays unfulfilled.
                report.timed_out = True
                self.history.record(
                    "timed_out",
                    requirement.subtask_id,
                    f"after {index}/{requirement.count} patterns",
                )
                break
            if index == 0:
                # All base topologies in one call, after the first time
                # check so an exhausted budget does no engine work.
                bases = self._generate_bases(requirement)
            seed = requirement.seed + index
            handle = self._finish_topology(requirement, bases[index], seed)
            self._legalize_with_recovery(requirement, handle, seed, report)
        report.elapsed_seconds = time.perf_counter() - start
        report.tool_calls = len(self.tools.call_log) - calls_before
        return report

    # -- pipeline steps --------------------------------------------------

    def _generate_bases(self, requirement: RequirementList) -> List[str]:
        """Generate ``requirement.count`` window-sized base topologies.

        One ``Topology_Generation`` call at ``requirement.seed``, hence one
        batched trajectory; returns their handles.
        """
        window = self.tools.model.window
        base_size = min(max(requirement.topology_size), window)
        result = self.tools.call(
            "Topology_Generation",
            seed=requirement.seed,
            style=requirement.style,
            size=base_size,
            count=requirement.count,
        )
        if not result.ok:
            raise RuntimeError(f"topology generation failed: {result.message}")
        return result.data["topology_paths"]

    def _finish_topology(
        self, requirement: RequirementList, handle: str, seed: int
    ) -> str:
        """Extend a base topology when the requirement needs it."""
        window = self.tools.model.window
        if requirement.needs_extension(window):
            method = requirement.extension_method or "Out"
            result = self.tools.call(
                "Topology_Extension",
                topology_path=handle,
                target_size=max(requirement.topology_size),
                method=method,
                style=requirement.style,
                seed=seed,
            )
            if not result.ok:
                raise RuntimeError(f"extension failed: {result.message}")
            handle = result.data["topology_path"]
        self.history.record(
            "generated", requirement.subtask_id, f"seed {seed} -> {handle}"
        )
        return handle

    def _legalize_with_recovery(
        self,
        requirement: RequirementList,
        handle: str,
        seed: int,
        report: SubTaskReport,
    ) -> None:
        retries = self.max_retries
        while True:
            result = self.tools.call(
                "Legalization",
                topology_path=handle,
                physical_size=requirement.physical_size,
            )
            if result.ok:
                report.produced += 1
                self.history.record(
                    "legalized", requirement.subtask_id, f"{handle} ok"
                )
                return
            step = self._decide(requirement, result, retries, seed)
            report.decisions.append(step)
            if step.action == "Topology_Modification" and retries > 0:
                retries -= 1
                report.modifications += 1
                args = dict(step.action_input)
                args.setdefault("style", requirement.style)
                args.setdefault("seed", seed)
                args["topology_path"] = handle
                mod = self.tools.call("Topology_Modification", **args)
                if mod.ok:
                    handle = mod.data["topology_path"]
                self.history.record(
                    "modified",
                    requirement.subtask_id,
                    f"{handle} region "
                    f"{(args.get('upper'), args.get('left'), args.get('bottom'), args.get('right'))}",
                )
            elif step.action == "Regenerate" and retries > 0:
                retries -= 1
                report.regenerations += 1
                new_seed = int(step.action_input.get("seed", seed + 104_729))
                single = RequirementList(
                    topology_size=requirement.topology_size,
                    physical_size=requirement.physical_size,
                    style=requirement.style,
                    count=1,
                    extension_method=requirement.extension_method,
                    drop_allowed=requirement.drop_allowed,
                    seed=new_seed,
                    subtask_id=requirement.subtask_id,
                )
                handle = self._finish_topology(
                    single, self._generate_bases(single)[0], new_seed
                )
                self.history.record(
                    "regenerated", requirement.subtask_id, f"seed {new_seed}"
                )
            else:
                report.dropped += 1
                self.history.record(
                    "dropped", requirement.subtask_id, f"{handle} after failures"
                )
                return

    # -- LLM decision -----------------------------------------------------

    def _decide(
        self,
        requirement: RequirementList,
        failure: ToolResult,
        retries: int,
        seed: int,
    ) -> ReActStep:
        messages: List[Message] = [
            {
                "role": "system",
                "content": (
                    "You are operating layout design tools. Given the "
                    "observation from the last tool call, decide the next "
                    "action. Available actions: Topology_Modification, "
                    "Regenerate, Drop. Respond as:\n"
                    "Thought: <reasoning>\nAction: <name>\n"
                    "Action Input: <JSON arguments>"
                ),
            },
            {
                "role": "user",
                "content": (
                    "TASK: REACT_DECISION\n"
                    f"STYLE: {requirement.style}\n"
                    f"SEED: {seed}\n"
                    f"RETRIES REMAINING: {retries}\n"
                    f"DROP ALLOWED: {requirement.drop_allowed}\n"
                    f"OBSERVATION:\n{failure.message}"
                ),
            },
        ]
        return parse_react(self.backend.complete(messages))
