"""Task graph programming model (static tasks + subflows).

A :class:`TaskGraph` is a DAG of :class:`Task` objects.  Every task wraps a
callable; edges are declared with :meth:`Task.precede` / :meth:`Task.succeed`,
mirroring the Taskflow API used by the paper.  A task's callable may *return a
sequence of callables*: these become a dynamically spawned *subflow* whose
completion is joined before the parent's successors are released -- this is
how qTask expresses intra-gate operation parallelism (Fig. 12, the ``G6``
subflow with tasks ``G6-0``/``G6-1``).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Union

from ..core.exceptions import ExecutorError

__all__ = ["Task", "TaskGraph"]

_task_counter = itertools.count()


class Task:
    """A node of a :class:`TaskGraph`."""

    __slots__ = ("fn", "_name", "uid", "successors", "predecessors", "graph")

    def __init__(
        self,
        fn: Optional[Callable[[], object]],
        name: Union[str, Callable[[], str]] = "",
    ) -> None:
        self.fn = fn
        self.uid = next(_task_counter)
        self._name = name or f"task-{self.uid}"
        self.successors: List["Task"] = []
        self.predecessors: List["Task"] = []
        self.graph: Optional["TaskGraph"] = None

    @property
    def name(self) -> str:
        """The task's label.

        A task may be named by a zero-argument callable, which is called
        the first time somebody asks: an update names one task per stage
        and nothing reads the names unless a task fails or the graph is
        dumped.
        """
        name = self._name
        if not isinstance(name, str):
            name = self._name = name()
        return name

    # -- graph construction -------------------------------------------------

    def precede(self, *others: "Task") -> "Task":
        """Declare that this task must run before ``others``."""
        for other in others:
            if other is self:
                raise ExecutorError(f"task '{self.name}' cannot precede itself")
            if other not in self.successors:
                self.successors.append(other)
                other.predecessors.append(self)
        return self

    def succeed(self, *others: "Task") -> "Task":
        """Declare that this task must run after ``others``."""
        for other in others:
            other.precede(self)
        return self

    # -- execution ----------------------------------------------------------

    def run(self) -> Optional[Sequence[Callable[[], object]]]:
        """Invoke the wrapped callable, returning any spawned subflow."""
        if self.fn is None:
            return None
        result = self.fn()
        if result is None:
            return None
        if callable(result):
            return [result]
        if isinstance(result, (list, tuple)) and all(callable(c) for c in result):
            return list(result)
        # Any other return value is ignored (tasks communicate by side effect).
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.name!r})"


class TaskGraph:
    """A DAG of tasks, executable by any :class:`~repro.parallel.executor.Executor`."""

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = name
        self._tasks: List[Task] = []

    # -- construction -------------------------------------------------------

    def emplace(
        self,
        fn: Optional[Callable[[], object]],
        name: Union[str, Callable[[], str]] = "",
    ) -> Task:
        """Create a task in this graph (Taskflow's ``emplace``)."""
        t = Task(fn, name)
        t.graph = self
        self._tasks.append(t)
        return t

    def placeholder(self, name: str = "") -> Task:
        """An empty task used purely for synchronisation (e.g. ``sync-1``)."""
        return self.emplace(None, name or "sync")

    def add(self, task: Task) -> Task:
        task.graph = self
        self._tasks.append(task)
        return task

    # -- inspection ---------------------------------------------------------

    @property
    def tasks(self) -> List[Task]:
        return list(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def num_edges(self) -> int:
        return sum(len(t.successors) for t in self._tasks)

    def sources(self) -> List[Task]:
        return [t for t in self._tasks if not t.predecessors]

    def sinks(self) -> List[Task]:
        return [t for t in self._tasks if not t.successors]

    def validate(self) -> List[Task]:
        """Raise :class:`ExecutorError` when the graph contains a cycle.

        Returns the topological order the check computed, so an executor
        that runs tasks in that order pays for one Kahn pass, not two.
        """
        order = self.topological_order()
        if len(order) != len(self._tasks):
            raise ExecutorError(f"task graph '{self.name}' contains a cycle")
        return order

    def topological_order(self) -> List[Task]:
        """Kahn topological order (tasks not reachable from sources included)."""
        indeg: Dict[int, int] = {t.uid: len(t.predecessors) for t in self._tasks}
        ready = [t for t in self._tasks if indeg[t.uid] == 0]
        order: List[Task] = []
        i = 0
        while i < len(ready):
            t = ready[i]
            i += 1
            order.append(t)
            for s in t.successors:
                indeg[s.uid] -= 1
                if indeg[s.uid] == 0:
                    ready.append(s)
        return order

    def to_dot(self) -> str:
        """GraphViz DOT rendering (used by ``dump_graph``)."""
        lines = [f'digraph "{self.name}" {{']
        for t in self._tasks:
            lines.append(f'  "{t.name}";')
        for t in self._tasks:
            for s in t.successors:
                lines.append(f'  "{t.name}" -> "{s.name}";')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskGraph({self.name!r}, tasks={len(self._tasks)}, edges={self.num_edges()})"
